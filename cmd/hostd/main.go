// Hostd is the SELF-SERV host daemon: it runs the Coordinator and Wrapper
// machinery on a provider's node. It serves a set of local component
// services, listens for peer-to-peer coordination messages on a TCP
// address, and accepts routing-table uploads from the deployer on an
// admin HTTP address (the paper's "download and install the Coordinator
// class" step, as a daemon).
//
//	go run ./cmd/hostd -coord 127.0.0.1:9001 -admin 127.0.0.1:7001 \
//	    -services DomesticFlightBooking,AttractionsSearch
//
// Available built-in services: the five travel-scenario providers
// (AccommodationBooking is a three-member community), plus
// "echo:<Name>:<op>" for generic wiring tests and "inc:<Name>" for a
// service that increments its numeric "x" parameter.
//
// Transport flow control, connection lifecycle, cross-round batching,
// and the bounded receive lanes are tunable: see the -send-queue,
// -queue-policy, -send-deadline, -conn-idle-timeout, -max-conns,
// -reconnect-backoff, -flush-delay, -max-batch-bytes, -recv-lanes and
// -recv-queue flags (and docs/transport.md for the contract behind
// them).
//
// The availability-under-churn controls (docs/availability.md): circuit
// breakers on both the transport send path and the hosted community's
// members (-breaker-window, -breaker-threshold, -breaker-min-samples,
// -breaker-open-for), active health checks probing dark community
// members back to life (-health-interval, -health-jitter), and
// per-tenant admission control (-tenant-limits). Shed requests,
// failovers, and breaker opens appear on the -stats line.
//
// Durable instances (docs/durability.md): -journal-dir turns on the
// per-shard write-ahead journal (cap-hit eviction becomes passivation,
// crash recovery becomes possible), -fsync picks the durability/latency
// trade (always, batch, off), -snapshot-every tunes how often an
// instance's full bag is snapshotted between rounds, and the admin
// API's POST /recover replays the journal once the control plane has
// reinstalled the daemon's tables. -drain-timeout bounds how long a
// replaced deployment may finish in-flight instances after a redeploy.
// The daemon runs on a core.Platform, so the -stats line also carries
// the swap counters (rerouted/dropped-stale/abandoned/in-flight) and
// the durability counters (evicted/passivated/rehydrated, journal
// appends).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/community"
	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/limits"
	"selfserv/internal/placement"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h printed usage; exit 0 like ExitOnError would
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run is the whole daemon, factored so tests can start it with chosen
// flags, watch its log output on out, and stop it through ctx.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hostd", flag.ContinueOnError)
	fs.SetOutput(out)
	coordAddr := fs.String("coord", "127.0.0.1:0", "coordination (TCP) listen address")
	adminAddr := fs.String("admin", "127.0.0.1:0", "admin HTTP listen address")
	services := fs.String("services", "", "comma-separated services to host (see doc)")
	latency := fs.Duration("latency", 5*time.Millisecond, "simulated service latency")
	svcConcurrency := fs.Int("svc-concurrency", 0, "cap concurrent invocations per hosted simulated service — models real provider capacity; extra callers queue (0 = unlimited)")
	shardSize := fs.Int("placement-shard-size", 0, "shuffle-shard width for tenant-aware replica routing: each tenant's instances spread over at most this many replicas of a state (0 = all replicas)")
	cells := fs.String("placement-cells", "", "dedicated placement cells, \"<tenant>=<size>,...\": claim <size> replicas exclusively for <tenant>; must be identical on every replica of a deployment")
	statsEvery := fs.Duration("stats", 0, "log transport traffic (messages vs wire frames, queue depth, reconnects) at this interval; 0 disables")
	verbose := fs.Bool("v", false, "log coordinator activity")

	sendQueue := fs.Int("send-queue", 0, "per-connection write queue capacity, in frames (0 = 256); a full queue applies -queue-policy")
	queuePolicy := fs.String("queue-policy", "block", "full-queue policy: \"block\" waits up to -send-deadline for space, \"shed\" fails the send immediately")
	sendDeadline := fs.Duration("send-deadline", 0, "how long a blocked send may wait for queue space (0 = 5s)")
	idleTimeout := fs.Duration("conn-idle-timeout", 0, "evict cached peer connections idle this long (0 = never)")
	maxConns := fs.Int("max-conns", 0, "cap on cached outbound peer connections, evicting the least-recently-used idle one (0 = unlimited)")
	backoffBase := fs.Duration("reconnect-backoff", 0, "first reconnect delay after a failed peer connection; doubles per attempt, jittered (0 = 25ms)")
	backoffMax := fs.Duration("reconnect-backoff-max", 0, "cap on the reconnect delay (0 = 2s)")
	flushDelay := fs.Duration("flush-delay", 0, "cross-round batching: wait this long per wire write to merge everything queued for a destination into one frame; trades latency for throughput (0 = off, write per frame)")
	maxBatchBytes := fs.Int("max-batch-bytes", 0, "payload cap for a merged frame under -flush-delay (0 = 256KiB)")
	recvLanes := fs.Int("recv-lanes", 0, "bounded receive delivery lanes per listener; inbound frames hash by logical sender (the frame's From) onto a lane, each delivering in FIFO order (0 = 8)")
	recvQueue := fs.Int("recv-queue", 0, "per-lane receive queue capacity, in frames; a full lane pushes back on the sending connection (0 = 256)")

	breakerWindow := fs.Int("breaker-window", 0, "circuit-breaker rolling window size, in outcomes; 0 disables breakers entirely (transport send path and community delegation)")
	breakerThreshold := fs.Float64("breaker-threshold", 0, "failure fraction of the window that opens a breaker (0 = 0.5)")
	breakerMinSamples := fs.Int("breaker-min-samples", 0, "outcomes required in the window before a breaker may open (0 = window size)")
	breakerOpenFor := fs.Duration("breaker-open-for", 0, "cool-down before an open breaker admits half-open probes (0 = 5s)")
	healthInterval := fs.Duration("health-interval", 0, "actively probe the hosted community's members at this interval; 0 disables health checks")
	healthJitter := fs.Duration("health-jitter", 0, "random extra delay added to each health-check round (0 = interval/10)")
	tenantLimits := fs.String("tenant-limits", "", "per-tenant admission control, \"default=<rate>[:<burst>],<tenant>=<rate>[:<burst>],...\" in requests/second; empty disables")

	drainTimeout := fs.Duration("drain-timeout", 0, "bound on how long a replaced deployment may keep finishing in-flight instances after a redeploy before stragglers are failed loudly (0 = 30s)")
	journalDir := fs.String("journal-dir", "", "durability journal directory: every coordinator commit point is journaled, cap-hit eviction becomes passivation, and POST /recover can replay after a crash; empty disables durability")
	fsyncMode := fs.String("fsync", "batch", "journal fsync mode: \"always\" syncs every append, \"batch\" syncs once per flushed batch, \"off\" leaves syncing to the OS (fast CI)")
	snapshotEvery := fs.Int("snapshot-every", 0, "journal a full instance snapshot every N firing rounds, bounding replay length (0 = 16)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := transport.ParseQueuePolicy(*queuePolicy)
	if err != nil {
		return err
	}
	var breaker *circuit.Options
	if *breakerWindow > 0 {
		breaker = &circuit.Options{
			Window:     *breakerWindow,
			Threshold:  *breakerThreshold,
			MinSamples: *breakerMinSamples,
			OpenFor:    *breakerOpenFor,
		}
	}
	limiter, err := parseTenantLimits(*tenantLimits)
	if err != nil {
		return err
	}
	placementPolicy, err := parsePlacementCells(*cells)
	if err != nil {
		return err
	}
	placementPolicy.ShardSize = *shardSize

	lg := log.New(out, "", log.LstdFlags)

	tcp := transport.NewTCP(transport.FlowOptions{
		QueueLen:      *sendQueue,
		Policy:        policy,
		SendDeadline:  *sendDeadline,
		IdleTimeout:   *idleTimeout,
		MaxConns:      *maxConns,
		BackoffBase:   *backoffBase,
		BackoffMax:    *backoffMax,
		FlushDelay:    *flushDelay,
		MaxBatchBytes: *maxBatchBytes,
		RecvLanes:     *recvLanes,
		RecvQueueLen:  *recvQueue,
		Breaker:       breaker,
	})
	defer tcp.Close()

	// Community availability events land in the transport's stats book,
	// keyed by the failing member's name, so the -stats line (and any
	// Stats() reader) sees churn without a second counter surface.
	commOpts := community.Options{
		Breaker:    breaker,
		OnFailover: func(member string) { tcp.RecordFailover(member) },
	}
	if *healthInterval > 0 {
		commOpts.Health = &community.HealthOptions{
			Interval: *healthInterval,
			Jitter:   *healthJitter,
		}
	}
	fsync, err := journal.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return fmt.Errorf("hostd: %w", err)
	}

	// The daemon's machinery — host, directory, registry, drain-aware
	// swaps, and the durability journal — is a core.Platform over the
	// shared TCP transport. The platform does not own the network (hostd
	// closes it) and hostd never calls Deploy: tables arrive through the
	// admin API like before.
	hostOpts := engine.HostOptions{Limits: limiter}
	if *verbose {
		hostOpts.Logf = lg.Printf
	}
	p := core.New(core.Options{
		Network:      tcp,
		Funcs:        workload.TravelGuards(),
		HostOptions:  hostOpts,
		Placement:    placementPolicy,
		DrainTimeout: *drainTimeout,
		Durability: journal.Options{
			Dir:           *journalDir,
			Fsync:         fsync,
			SnapshotEvery: *snapshotEvery,
		},
	})
	defer p.Close()
	if err := p.DurabilityError(); err != nil {
		lg.Printf("hostd: WARNING: journal %s failed to open (%v); running journal-less — instances are NOT durable", *journalDir, err)
	}

	comm, err := registerServices(p.Registry(), *services, service.SimulatedOptions{
		BaseLatency:   *latency,
		MaxConcurrent: *svcConcurrency,
	}, commOpts)
	if err != nil {
		return err
	}
	host, err := p.AddHost(*coordAddr)
	if err != nil {
		return err
	}
	if comm != nil && *healthInterval > 0 {
		comm.StartHealthChecks(ctx)
		defer comm.StopHealthChecks()
	}

	admin := hostapi.NewServer(host, p.Directory(), p.Registry().Names)
	if p.Journal() != nil {
		admin.SetRecoverFunc(p.Recover)
	}
	ln, err := net.Listen("tcp", *adminAddr)
	if err != nil {
		return err
	}
	if *statsEvery > 0 {
		go logStats(ctx, lg, p, tcp, host.Addr(), *statsEvery)
	}
	durable := "off"
	if p.Journal() != nil {
		durable = fmt.Sprintf("%s (fsync %s)", *journalDir, *fsyncMode)
	}
	lg.Printf("hostd: coordination on %s, admin on http://%s, services %v, durability %s",
		host.Addr(), ln.Addr(), p.Registry().Names(), durable)

	srv := &http.Server{Handler: admin}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) && ctx.Err() == nil {
		return err
	}
	return nil
}

// logStats periodically reports this host's transport counters. The
// msgs-out/frames-out gap is the Network v2 coalescing win; queue depth,
// blocked sends, and reconnects are the flow-control observables (the
// totals aggregate the per-destination counters). The platform line
// carries the redeploy-swap counters (rerouted/dropped-stale stale
// frames, in-flight executions, abandoned stragglers) and the
// durable-instance counters (evictions, passivations, rehydrations,
// journal appends/syncs).
func logStats(ctx context.Context, lg *log.Logger, p *core.Platform, tcp *transport.TCP, coordAddr string, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			st := tcp.Stats()
			ns := st.Nodes[coordAddr]
			total := st.Total()
			swap := p.SwapStats()
			dur := p.DurabilityStats()
			lg.Printf("hostd: traffic in=%d out=%d frames-out=%d bytes-in=%d bytes-out=%d"+
				" queue-depth=%d send-blocked=%d reconnects=%d frames-merged=%d merged-msgs-per-frame=%.1f"+
				" recv-lanes=%d recv-queue-depth=%d conns=%d"+
				" failovers=%d shed=%d breaker-opens=%d"+
				" rerouted=%d dropped-stale=%d in-flight=%d abandoned=%d"+
				" evicted=%d passivated=%d rehydrated=%d journal-appends=%d journal-syncs=%d",
				ns.MsgsIn, ns.MsgsOut, ns.FramesOut, ns.BytesIn, ns.BytesOut,
				total.QueueDepth, total.SendBlocked, total.Reconnects,
				total.FramesMerged, total.MergedMsgsPerFrame(),
				ns.RecvLanes, ns.RecvQueueDepth, tcp.ConnCount(),
				total.Failovers, total.ShedRequests, total.BreakerOpens,
				swap.Rerouted, swap.DroppedStale, p.InFlight(), p.Abandoned(),
				dur.Evicted, dur.Passivated, dur.Rehydrated,
				dur.Journal.Appends, dur.Journal.Syncs)
		}
	}
}

// registerServices parses the -services flag. When AccommodationBooking
// is hosted, its community is built with commOpts (breakers, health
// checks, availability observers) and returned for lifecycle wiring.
func registerServices(reg *service.Registry, spec string, opts service.SimulatedOptions, commOpts community.Options) (*community.Community, error) {
	if spec == "" {
		return nil, fmt.Errorf("hostd: -services is required (nothing to host)")
	}
	var comm *community.Community
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "DomesticFlightBooking":
			reg.Register(service.NewDomesticFlightBooking(opts))
		case name == "InternationalTravel":
			reg.Register(service.NewInternationalTravel(opts))
		case name == "AttractionsSearch":
			reg.Register(service.NewAttractionsSearch(opts))
		case name == "CarRental":
			reg.Register(service.NewCarRental(opts))
		case name == "AccommodationBooking":
			var err error
			if comm, err = workload.RegisterTravelCommunityWith(reg, opts, commOpts); err != nil {
				return nil, err
			}
		case strings.HasPrefix(name, "echo:"):
			parts := strings.Split(name, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("hostd: echo service spec %q, want echo:<Name>:<op>", name)
			}
			reg.Register(service.NewSimulated(parts[1], opts).Echo(parts[2]))
		case strings.HasPrefix(name, "inc:"):
			svcName := strings.TrimPrefix(name, "inc:")
			reg.Register(service.NewSimulated(svcName, opts).Handle("run", workload.IncrementX))
		default:
			return nil, fmt.Errorf("hostd: unknown service %q", name)
		}
	}
	return comm, nil
}

// parsePlacementCells turns the -placement-cells spec into the
// dedicated-cell part of a placement policy: comma-separated
// "<tenant>=<size>" entries, each claiming <size> replicas exclusively
// for <tenant>. Routing is a pure local computation, so the SAME policy
// must be configured on every replica of a deployment — mismatched
// policies would route one instance's notifications to different
// coordinators.
func parsePlacementCells(spec string) (placement.Policy, error) {
	var pol placement.Policy
	if spec == "" {
		return pol, nil
	}
	pol.Dedicated = map[string]int{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		tenant, sizeSpec, ok := strings.Cut(entry, "=")
		if !ok || tenant == "" {
			return pol, fmt.Errorf("hostd: placement cell %q, want <tenant>=<size>", entry)
		}
		size, err := strconv.Atoi(sizeSpec)
		if err != nil || size <= 0 {
			return pol, fmt.Errorf("hostd: placement cell %q: size must be a positive integer", entry)
		}
		pol.Dedicated[tenant] = size
	}
	return pol, nil
}

// parseTenantLimits turns the -tenant-limits spec into a Limiter:
// comma-separated "<tenant>=<rate>" or "<tenant>=<rate>:<burst>"
// entries, rates in requests/second; the reserved tenant name "default"
// sets the bucket shape for everyone without an override. An empty spec
// returns nil (no admission control).
func parseTenantLimits(spec string) (*limits.Limiter, error) {
	if spec == "" {
		return nil, nil
	}
	lo := limits.Options{PerTenant: map[string]limits.Limit{}}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		tenant, shape, ok := strings.Cut(entry, "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("hostd: tenant limit %q, want <tenant>=<rate>[:<burst>]", entry)
		}
		rateSpec, burstSpec, hasBurst := strings.Cut(shape, ":")
		var lim limits.Limit
		var err error
		if lim.Rate, err = strconv.ParseFloat(rateSpec, 64); err != nil {
			return nil, fmt.Errorf("hostd: tenant %q rate %q: %w", tenant, rateSpec, err)
		}
		if hasBurst {
			if lim.Burst, err = strconv.ParseFloat(burstSpec, 64); err != nil {
				return nil, fmt.Errorf("hostd: tenant %q burst %q: %w", tenant, burstSpec, err)
			}
		}
		if tenant == "default" {
			lo.Default = lim
		} else {
			lo.PerTenant[tenant] = lim
		}
	}
	return limits.New(lo), nil
}
