package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"selfserv/internal/community"
	"selfserv/internal/core"
	"selfserv/internal/journal"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// clients is the closed-loop client count: the number of CPUs of the
// machine the benchmark was defined on, fixed so that runs on other
// machines apply the same load.
const clients = 2

// spec describes one workload: a chart, its providers and a transport.
// BENCHMARK.json says why each one is in the benchmark.
type spec struct {
	name    string
	tcp     bool // loopback TCP instead of the in-memory network
	durable bool // journal every commit point (fsync off)
	travel  bool // the paper's travel chart; otherwise Chain(8)
}

var specs = []spec{
	{name: "chain8-inmem"},
	{name: "chain8-journal", durable: true},
	{name: "travel-tcp", tcp: true, travel: true},
}

func (s spec) chart() *statechart.Statechart {
	if s.travel {
		return workload.Travel()
	}
	return workload.Chain(8)
}

// roundLen is how many requests a client runs between deadline checks:
// travel clients run whole rounds of the four destinations, so every
// run executes the same mix and its per-execution counts repeat exactly.
func (s spec) roundLen() int {
	if s.travel {
		return len(travelDests)
	}
	return 1
}

// instanceCap is the engine's default bound on instances kept per
// coordinator (engine.HostOptions.MaxInstancesPerState). A host reaches
// its steady state, where each new instance evicts (or, with a journal,
// passivates) an old one, only once every table is full.
const instanceCap = 16384

// burnIn is how many executions bring every coordinator's table to the
// cap: Chain(8) visits each state once per execution, the travel chart
// visits DFB, ITA and CR on half of its executions.
func (s spec) burnIn() int {
	if s.travel {
		return 2*instanceCap + instanceCap/8
	}
	return instanceCap + instanceCap/8
}

// request is one generated execution input and the check of its output.
type request struct {
	in    map[string]string
	check func(out map[string]string) error
}

var travelDests = []string{"sydney", "melbourne", "tokyo", "paris"}

// inputs generates each client's cyclic request pool from the seed.
func (s spec) inputs(seed int64) [][]request {
	const poolRounds = 256
	pools := make([][]request, clients)
	for c := range pools {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
		for r := 0; r < poolRounds; r++ {
			if !s.travel {
				x := rng.Intn(1_000_000)
				pools[c] = append(pools[c], chainRequest(x))
				continue
			}
			for _, i := range rng.Perm(len(travelDests)) {
				customer := fmt.Sprintf("cust%04d", rng.Intn(10000))
				pools[c] = append(pools[c], travelRequest(customer, travelDests[i]))
			}
		}
	}
	return pools
}

func chainRequest(x int) request {
	return request{
		in: map[string]string{"x": strconv.Itoa(x)},
		check: func(out map[string]string) error {
			got, err := strconv.ParseFloat(out["x"], 64)
			if err != nil || got != float64(x+8) {
				return fmt.Errorf("x=%d: output x=%q, want %d", x, out["x"], x+8)
			}
			return nil
		},
	}
}

// travelRequest checks the branch the destination selects: a domestic
// flight (QF-) or an international arrangement (INT-), and a car rental
// exactly when the major attraction is far.
func travelRequest(customer, dest string) request {
	domestic := dest == "sydney" || dest == "melbourne"
	far := dest == "melbourne" || dest == "tokyo"
	return request{
		in: workload.TravelRequest(customer, dest, domestic),
		check: func(out map[string]string) error {
			prefix := "INT-"
			if domestic {
				prefix = "QF-"
			}
			if !strings.HasPrefix(out["flightRef"], prefix) {
				return fmt.Errorf("%s: flightRef %q, want prefix %s", dest, out["flightRef"], prefix)
			}
			if car := out["carRef"] != ""; car != far {
				return fmt.Errorf("%s: carRef %q, want present=%v", dest, out["carRef"], far)
			}
			if !strings.HasSuffix(out["accommodation"], " "+dest) || out["major_attraction"] == "" {
				return fmt.Errorf("%s: accommodation %q, attraction %q", dest, out["accommodation"], out["major_attraction"])
			}
			return nil
		},
	}
}

// fleet is one assembled platform: a host per service, the chart
// deployed, providers registered (decorated when traced).
type fleet struct {
	p    *core.Platform
	comp *core.Composite
	net  transport.Network // closed by close when the platform does not own it
	dir  string            // journal directory, removed by close
}

// close shuts the fleet down and removes its journal, so that its pages
// are not still being written back while later phases are timed.
func (f *fleet) close() {
	f.p.Close()
	if f.net != nil {
		f.net.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

func (f *fleet) crash() {
	f.p.Crash()
	if f.net != nil {
		f.net.Close()
	}
}

// setupTimes are the phases of assembling a fleet.
type setupTimes struct {
	addHosts, deploy, firstExec time.Duration
}

// assemble builds s's fleet. A non-empty journalDir turns durability on;
// a non-nil tracer decorates the network and the providers.
func assemble(s spec, tr *tracer, journalDir string) (*fleet, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	var opts core.Options
	f := &fleet{dir: journalDir}
	switch {
	case s.tcp:
		f.net = transport.NewTCP()
	case tr != nil:
		f.net = transport.NewInMem(transport.InMemOptions{})
	}
	if tr != nil {
		opts.Network = tr.network(f.net)
	} else if f.net != nil {
		opts.Network = f.net
	}
	if s.travel {
		opts.Funcs = workload.TravelGuards()
	}
	if journalDir != "" {
		opts.Durability = journal.Options{Dir: journalDir, Fsync: journal.FsyncOff}
	}
	f.p = core.New(opts)
	if err := f.p.DurabilityError(); err != nil {
		f.close()
		return nil, st, err
	}
	sc := s.chart()
	provs, err := providers(s, tr, journalDir != "")
	if err != nil {
		f.close()
		return nil, st, err
	}
	for i, svc := range sc.Services() {
		addr := fmt.Sprintf("host-%d", i)
		if s.tcp {
			addr = "127.0.0.1:0"
		}
		h, err := f.p.AddHost(addr)
		if err != nil {
			f.close()
			return nil, st, err
		}
		prov, ok := provs[svc]
		if !ok {
			f.close()
			return nil, st, fmt.Errorf("no provider for %s", svc)
		}
		f.p.RegisterService(h, prov)
	}
	t1 := time.Now()
	st.addHosts = t1.Sub(t0)
	f.comp, err = f.p.Deploy(sc)
	if err != nil {
		f.close()
		return nil, st, err
	}
	st.deploy = time.Since(t1)
	return f, st, nil
}

// providers builds s's component services by name. Durable fleets wrap
// each elementary service in service.Idempotent, as crash recovery
// requires; traced fleets wrap every provider and community member in a
// span-recording decorator.
func providers(s spec, tr *tracer, durable bool) (map[string]service.Provider, error) {
	opts := service.SimulatedOptions{}
	reg := service.NewRegistry()
	var ab *community.Community
	if s.travel {
		var err error
		if ab, err = workload.RegisterTravelProviders(reg, opts); err != nil {
			return nil, err
		}
	} else {
		workload.RegisterChainProviders(reg, 8, opts)
	}
	out := map[string]service.Provider{}
	for _, name := range reg.Names() {
		if ab != nil && name == ab.Name() {
			continue
		}
		p, _ := reg.Lookup(name) // listed by Names
		if durable {
			p = service.NewIdempotent(p, 0)
		}
		out[name] = tr.provider(kindInvoke, p)
	}
	if s.travel {
		// The community is rebuilt so that its members can be decorated.
		// It must stay in step with workload.RegisterTravelCommunityWith:
		// three hotel brands, QoS policy, one failover.
		ab = community.New("AccommodationBooking", community.Options{
			Policy:   community.NewQoS(community.Weights{}),
			Failover: 1,
		})
		for i, brand := range []string{"GrandHotel", "CityLodge", "HarbourInn"} {
			m := &community.Member{
				Provider:   tr.provider(kindMember, service.NewAccommodationBooking(brand, opts)),
				Cost:       float64(1 + i),
				Attributes: map[string]string{"brand": brand},
			}
			if err := ab.Join(m); err != nil {
				return nil, err
			}
		}
		out[ab.Name()] = tr.provider(kindDelegate, ab)
	}
	return out, nil
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	lat       []int64 // client-measured latency of each completed execution, ns
	done      []int64 // completion time of each, ns since the phase started
	completed int
	failed    int
	firstErr  error
	wall      time.Duration
	insts     map[string]bool // instance IDs of the completed executions (traced runs)
}

// runPhase drives comp with the closed-loop clients until d has passed
// (checked between rounds) or, with d == 0, for exactly n rounds per
// client. Every output is checked. With a tracer, each execution is the
// root span of its trace.
func runPhase(comp *core.Composite, pools [][]request, round int, d time.Duration, n int, prefix string, tr *tracer) phaseResult {
	ctx, cancel := context.WithTimeout(context.Background(), d+60*time.Second)
	defer cancel()
	results := make([]phaseResult, len(pools))
	done := make(chan struct{})
	start := time.Now()
	deadline := start.Add(d)
	for c := range pools {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			res := &results[c]
			res.lat = make([]int64, 0, 1<<15)
			res.done = make([]int64, 0, 1<<15)
			if tr != nil {
				res.insts = map[string]bool{}
			}
			pool := pools[c]
			idPrefix := prefix + strconv.Itoa(c) + "-"
			for k, next := 0, 0; ; k++ {
				if d > 0 && !time.Now().Before(deadline) || d == 0 && k == n {
					return
				}
				for i := 0; i < round; i++ {
					req := pool[next%len(pool)]
					id := idPrefix + strconv.Itoa(next)
					next++
					execCtx := ctx
					var root span
					if tr != nil {
						root, execCtx = tr.begin(ctx, kindExec, id)
					}
					t0 := time.Now()
					out, err := comp.ExecuteInstance(execCtx, id, req.in)
					lat := time.Since(t0)
					if tr != nil {
						tr.end(root)
					}
					if err == nil {
						err = req.check(out)
					}
					if err != nil {
						res.failed++
						if res.firstErr == nil {
							res.firstErr = err
						}
						continue
					}
					res.completed++
					res.lat = append(res.lat, int64(lat))
					res.done = append(res.done, int64(time.Since(start)))
					if tr != nil {
						res.insts[id] = true
					}
				}
			}
		}(c)
	}
	for range pools {
		<-done
	}
	total := phaseResult{wall: time.Since(start), insts: map[string]bool{}}
	for _, r := range results {
		total.lat = append(total.lat, r.lat...)
		total.done = append(total.done, r.done...)
		total.completed += r.completed
		total.failed += r.failed
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
		for id := range r.insts {
			total.insts[id] = true
		}
	}
	return total
}
