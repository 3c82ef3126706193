package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"selfserv/internal/expr"
	"selfserv/internal/journal"
	"selfserv/internal/limits"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
)

// HostOptions configure a Host.
type HostOptions struct {
	// Funcs are the guard functions available to condition evaluation.
	Funcs Funcs
	// MaxInstancesPerState bounds per-coordinator instance bookkeeping;
	// the oldest instances are evicted (with a journal, passivated)
	// beyond it. Coordinators never drop an instance when its execution
	// finishes, so this cap is also the only thing that reclaims finished
	// instances: a victim is usually a finished instance. Zero means
	// 16384.
	MaxInstancesPerState int
	// Logf, when set, receives coordinator trace lines (tests and the
	// hostd binary use it; benchmarks leave it nil).
	Logf func(format string, args ...any)
	// Limits, when set, gates remote TypeInvoke requests per tenant
	// (message variable engine.TenantVar). Nil admits everything.
	Limits *limits.Limiter
	// Journal, when set, makes every coordinator on this host durable:
	// arrivals, invocations, and firing rounds are journaled at their
	// commit points, cap-hit eviction becomes passivation (state goes to
	// the journal, not the floor), and outbound notifications carry
	// per-instance sequence numbers so crash-recovery redelivery can be
	// deduplicated. Nil keeps the pre-durability in-RAM behavior.
	Journal *journal.Journal
}

// Host is one node of the peer-to-peer execution fabric. It runs the
// coordinators of every state deployed to it (states whose component
// service lives on this node) and answers remote TypeInvoke requests
// (used by the centralized baseline and by remote wrappers).
type Host struct {
	ep       transport.Endpoint
	sender   transport.Sender // outbound handle attributed to this host
	registry *service.Registry
	dir      *Directory
	opts     HostOptions
	funcEnv  expr.Env // function layer shared by every evaluation
	// recorder surfaces shed decisions in the transport's destination-
	// keyed stats (both built-in networks implement it); nil-safe.
	recorder transport.AvailabilityRecorder

	mu     sync.RWMutex
	coords map[string]*coordinator // key: coordKey(composite, stateID, version)

	// Swap observability: frames that reached this host under a stale
	// directory snapshot and were forwarded to the right replica, and
	// frames that could not be placed at all (version retired everywhere).
	rerouted     atomic.Uint64
	droppedStale atomic.Uint64

	// Durability observability: instances whose state was LOST to a
	// cap-hit eviction (no journal, or the passivation write failed),
	// instances passivated to the journal, and passivated instances
	// rehydrated back into RAM on a later frame.
	evicted    atomic.Uint64
	passivated atomic.Uint64
	rehydrated atomic.Uint64
}

// SwapStats reports how many stale-snapshot frames this host re-routed
// and how many it had to drop (faulting the instance). Both should stay
// zero in a steady state; they only move during a fleet rollout.
type SwapStats struct {
	Rerouted     uint64
	DroppedStale uint64
}

// SwapStats returns the host's stale-frame counters.
func (h *Host) SwapStats() SwapStats {
	return SwapStats{Rerouted: h.rerouted.Load(), DroppedStale: h.droppedStale.Load()}
}

// Evicted counts instances dropped at the cap without a journal record —
// the pre-durability FIFO eviction. Coordinators keep finished instances
// until the cap reclaims them, so a victim is usually a finished
// instance, and once a state has run a cap's worth of executions each
// new one evicts an old one. A victim that was still live loses its
// state and stalls or faults its composite, so every increment is also
// logged loudly. With a journal configured this should stay zero (cap
// hits passivate instead).
func (h *Host) Evicted() uint64 { return h.evicted.Load() }

// Passivated counts instances serialized to the journal at a cap hit.
func (h *Host) Passivated() uint64 { return h.passivated.Load() }

// Rehydrated counts passivated instances restored into RAM by a later
// notification.
func (h *Host) Rehydrated() uint64 { return h.rehydrated.Load() }

// reroutedVar marks a frame that was already forwarded once by a host
// that had no coordinator for it ('$'-prefixed: engine metadata, never
// a service parameter). One hop is enough to cover the stale-snapshot
// window; a second miss means the version is gone and the frame drops.
const reroutedVar = "$rerouted"

// NewHost creates a host listening on addr over net, executing services
// out of registry and resolving peers through dir.
func NewHost(net transport.Network, addr string, registry *service.Registry, dir *Directory, opts HostOptions) (*Host, error) {
	if opts.MaxInstancesPerState <= 0 {
		opts.MaxInstancesPerState = 16384
	}
	h := &Host{
		registry: registry,
		dir:      dir,
		opts:     opts,
		funcEnv:  opts.Funcs.Env(),
		coords:   map[string]*coordinator{},
	}
	ep, err := net.Listen(addr, h.handle)
	if err != nil {
		return nil, fmt.Errorf("engine: host listen: %w", err)
	}
	h.ep = ep
	h.sender = net.Open(ep.Addr())
	if rec, ok := net.(transport.AvailabilityRecorder); ok {
		h.recorder = rec
	}
	return h, nil
}

// Addr returns the host's transport address.
func (h *Host) Addr() string { return h.ep.Addr() }

// Close unregisters the host from the network.
func (h *Host) Close() error { return h.ep.Close() }

// Install deploys one state's routing table onto this host — the moment
// the paper describes as the deployer "uploading these tables into the
// hosts of the corresponding component services". The host compiles the
// table (parsing every guard and action; see routing.CompileTable),
// registers the state's coordinator, and records its own address in the
// directory. An ill-formed guard fails HERE, at deploy time — never
// during an execution. In-process deployers that already hold a compiled
// table (deployer.Deploy) use InstallCompiled instead, so nothing is
// parsed twice.
func (h *Host) Install(composite string, table *routing.Table) error {
	if table == nil {
		return fmt.Errorf("engine: nil table")
	}
	compiled, err := routing.CompileTable(table)
	if err != nil {
		return fmt.Errorf("engine: install %s/%s: %w", composite, table.State, err)
	}
	return h.InstallCompiled(composite, compiled)
}

// InstallCompiled registers a coordinator for an already-compiled table.
// The compiled artifact is shared, immutable state: one compilation at
// deploy time serves every host and every execution instance.
func (h *Host) InstallCompiled(composite string, table *routing.CompiledTable) error {
	if table == nil {
		return fmt.Errorf("engine: nil table")
	}
	if _, err := h.registry.Lookup(table.Service); err != nil {
		return fmt.Errorf("engine: install %s/%s: %w", composite, table.State, err)
	}
	c := &coordinator{
		host:      h,
		composite: composite,
		version:   table.Version,
		table:     table,
	}
	h.mu.Lock()
	h.coords[coordKey(composite, table.State, table.Version)] = c
	h.mu.Unlock()
	// Join the state's replica set rather than replacing it: N hosts can
	// install the same table and each call lands its address in the
	// shared group (order-independent, so concurrent installs agree).
	// The registration is version-scoped: installing v(n+1) never touches
	// v(n)'s replica set, so draining instances keep their routes.
	h.dir.AddReplicaV(composite, table.Version, table.State, h.Addr())
	return nil
}

// Uninstall removes one version of a state's coordinator (service
// retirement or the rollback of a failed deploy) and withdraws this
// host from that version's replica set so no peer routes new
// notifications here. Version 0 is the unversioned namespace.
func (h *Host) Uninstall(composite, stateID string, version uint64) {
	h.mu.Lock()
	delete(h.coords, coordKey(composite, stateID, version))
	h.mu.Unlock()
	h.dir.RemoveReplicaV(composite, version, stateID, h.Addr())
}

// RetireVersion removes every coordinator of composite's given plan
// version from this host — the final step of a drain, after the last
// pinned instance completed (or was abandoned at the drain deadline).
func (h *Host) RetireVersion(composite string, version uint64) {
	h.mu.Lock()
	var removed []string
	for k, c := range h.coords {
		if comp, state, ok := splitCoordKey(k); ok && comp == composite && c.version == version {
			delete(h.coords, k)
			removed = append(removed, state)
		}
	}
	h.mu.Unlock()
	for _, s := range removed {
		h.dir.RemoveReplicaV(composite, version, s, h.Addr())
	}
}

// States returns the state IDs deployed on this host for composite
// (deduplicated across plan versions).
func (h *Host) States(composite string) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for k := range h.coords {
		if comp, state, ok := splitCoordKey(k); ok && comp == composite && !seen[state] {
			seen[state] = true
			out = append(out, state)
		}
	}
	return out
}

// coordinatorFor returns the coordinator installed for one (composite,
// state, version), or nil. Recovery uses it to route replayed journal
// records to their owners.
func (h *Host) coordinatorFor(composite, stateID string, version uint64) *coordinator {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.coords[coordKey(composite, stateID, version)]
}

func coordKey(composite, stateID string, version uint64) string {
	return composite + "\x00" + stateID + "\x00" + strconv.FormatUint(version, 10)
}

func splitCoordKey(k string) (composite, stateID string, ok bool) {
	composite, rest, ok1 := strings.Cut(k, "\x00")
	stateID, _, ok2 := strings.Cut(rest, "\x00")
	return composite, stateID, ok1 && ok2
}

// handle is the host's transport handler.
func (h *Host) handle(ctx context.Context, m *message.Message) {
	switch m.Type {
	case message.TypeStart, message.TypeNotify:
		h.mu.RLock()
		c := h.coords[coordKey(m.Composite, m.To, m.Version)]
		if c == nil && m.Version == 0 {
			// Unversioned sender against a versioned deployment: serve the
			// frame with the composite's current version.
			if cur := h.dir.Current(m.Composite); cur != 0 {
				c = h.coords[coordKey(m.Composite, m.To, cur)]
			}
		}
		h.mu.RUnlock()
		if c == nil {
			h.redirect(ctx, m)
			return
		}
		c.onNotification(ctx, m)
	case message.TypeInvoke:
		// Own goroutine: serveInvoke executes the service inline, and the
		// messages of one frame are delivered sequentially — a coalesced
		// invoke round (Central batches per host) must not serialize
		// co-hosted executions. Invokes are order-independent (replies
		// correlate by token), so frame FIFO is not needed here.
		go h.serveInvoke(ctx, m)
	default:
		h.logf("host %s: unexpected message %s", h.Addr(), m)
	}
}

// redirect handles a start/notify frame that reached a host with no
// matching coordinator. During a fleet rollout a sender may route under
// a stale directory snapshot (pushes are atomic per host, not across
// the fleet): the frame is DETECTED here — the version pin doesn't
// match any local coordinator — and re-routed once via this host's own
// directory rather than misdelivered into the wrong version's state. A
// frame that still has no home (its version was retired everywhere, or
// it already took its one re-route hop) is dropped loudly: counted,
// logged, and the instance faulted to its wrapper so the client fails
// instead of hanging.
func (h *Host) redirect(ctx context.Context, m *message.Message) {
	if m.Vars[reroutedVar] == "" {
		if addr, ok := h.dir.RouteV(m.Composite, m.Version, m.To, m.Instance, m.Vars[TenantVar]); ok && addr != h.Addr() {
			fwd := m.Clone()
			fwd.MergeVars(map[string]string{reroutedVar: "1"})
			if err := h.sender.Send(ctx, addr, fwd); err == nil {
				h.rerouted.Add(1)
				h.logf("host %s: re-routed stale frame for %s/%s v%d to %s", h.Addr(), m.Composite, m.To, m.Version, addr)
				return
			}
		}
	}
	h.droppedStale.Add(1)
	h.logf("host %s: no coordinator for %s/%s v%d; dropping %s", h.Addr(), m.Composite, m.To, m.Version, m)
	if addr, ok := h.lookupWrapper(m.Composite, m.Version); ok {
		f := fault(m.Composite, m.Instance, m.To, fmt.Errorf("engine: frame for retired plan version %d of %s/%s dropped", m.Version, m.Composite, m.To))
		f.Version = m.Version
		if err := h.sender.Send(ctx, addr, f); err != nil {
			h.logf("host %s: stale-frame fault delivery failed: %v", h.Addr(), err)
		}
	}
}

// lookupWrapper resolves the wrapper endpoint of composite, preferring
// the exact plan version's registration and falling back to the current
// one (so a retired version's fault still reaches somebody who can log
// it against the instance).
func (h *Host) lookupWrapper(composite string, version uint64) (string, bool) {
	if addr, ok := h.dir.LookupV(composite, version, message.WrapperID); ok {
		return addr, true
	}
	return h.dir.Lookup(composite, message.WrapperID)
}

// serveInvoke executes a remote invocation request ("service/operation"
// in To) and replies with a TypeResult to m.ReplyTo.
func (h *Host) serveInvoke(ctx context.Context, m *message.Message) {
	reply := &message.Message{
		Type:      message.TypeResult,
		Composite: m.Composite,
		Instance:  m.Instance,
		From:      m.To,
	}
	svc, op, ok := strings.Cut(m.To, "/")
	if !ok {
		reply.Error = fmt.Sprintf("engine: malformed invoke target %q", m.To)
	} else if err := h.opts.Limits.Allow(m.Vars[TenantVar]); err != nil {
		// Per-tenant admission: the shed is decided before the provider
		// is touched, and surfaces in this host's transport stats.
		if h.recorder != nil {
			h.recorder.RecordShed(h.Addr())
		}
		reply.Error = err.Error()
	} else {
		// Reserved '$'-prefixed variables are engine metadata, not service
		// parameters: the tenant moves to Request.Tenant, and the invoke
		// token (unique per firing) becomes the idempotency key so a
		// retried TypeInvoke can never execute the provider twice.
		params := m.Vars
		if _, tagged := params[TenantVar]; tagged {
			params = make(map[string]string, len(m.Vars))
			for k, v := range m.Vars {
				if !strings.HasPrefix(k, "$") {
					params[k] = v
				}
			}
		}
		resp, err := h.registry.Invoke(ctx, service.Request{
			Service:        svc,
			Operation:      op,
			Params:         params,
			Tenant:         m.Vars[TenantVar],
			IdempotencyKey: m.Composite + "/" + m.Instance + "/" + m.To,
		})
		if err != nil {
			reply.Error = err.Error()
		} else {
			reply.Vars = resp.Outputs
		}
	}
	if m.ReplyTo == "" {
		h.logf("host %s: invoke without replyTo", h.Addr())
		return
	}
	if err := h.sender.Send(ctx, m.ReplyTo, reply); err != nil {
		h.logf("host %s: reply to %s failed: %v", h.Addr(), m.ReplyTo, err)
	}
}

func (h *Host) logf(format string, args ...any) {
	if h.opts.Logf != nil {
		h.opts.Logf(format, args...)
	}
}

// coordinator is the peer software component attached to one state of a
// composite service (§2). It interprets its COMPILED routing table:
// collect notifications until a precondition clause is satisfied, invoke
// the local component service, then run postprocessing. All guards and
// actions were parsed at install time; per notification the coordinator
// only bumps an interned counter, compares bitmasks, and walks prebuilt
// expression trees.
//
// Instance bookkeeping is LOCK-STRIPED (see shard.go): the instance
// table is sharded by instance-ID hash and each instance carries its
// own mutex, so concurrent executions of the same composite never
// serialize behind a coordinator-wide lock — the critical section of a
// notification (counter bump, bag merge, guard eval) is per instance.
type coordinator struct {
	host      *Host
	composite string
	version   uint64 // plan version this coordinator belongs to; pins routing
	table     *routing.CompiledTable

	instances shardedTable[*coordInstance]
}

// coordInstance is the per-execution bookkeeping of one coordinator.
// Notification counts are indexed by the table's interned source IDs;
// pending mirrors "count > 0" as a bitmask so clause coverage is a
// word-compare (routing.CompiledClause.Covered).
//
// Variables are kept LAYERED, not merged on arrival: srcVars holds one
// accumulated bag per interned source, base holds everything else
// (non-interned senders, and the results of this coordinator's own
// firings). The bag guards and bindings see is rebuilt on demand by
// merging base plus every source bag in the table's canonical merge
// order (sorted source IDs, routing.CompiledTable.MergeOrder) — NEVER
// in arrival order. Arrival-order merging was the seed-8 AND-join
// liveness bug: two alternative successors of one concurrent state
// (clauses {A,B} guarded "x%2=0" vs "x%2=1") could merge A's and B's
// bags in opposite orders under scheduler jitter, disagree on x, and
// BOTH reject — stalling the instance forever. With a canonical order,
// every receiver of the same notifications computes the same bag, so
// exactly one of a set of complementary guards holds.
type coordInstance struct {
	mu      sync.Mutex // lockorder:instance — guards everything below; see shard.go for lock order
	counts  []uint32
	pending []uint64
	base    map[string]string
	srcVars []map[string]string // per interned source, accumulated in sender FIFO order
	srcVer  []uint32            // bumped on every write to the matching srcVars bag
	merged  map[string]string   // cached canonical merge; nil when stale
	running bool                // an invocation is in flight; new clause checks wait
	fireSeq uint64              // firings launched so far; keys idempotent retries

	// Durability bookkeeping, used only when the host has a journal.
	// lastSeen is the per-interned-source high-water mark of received
	// message sequence numbers: recovery redelivery may repeat a message
	// the crashed process already applied (and journaled), and the mark
	// drops the duplicate. sendSeq numbers this instance's outbound
	// notifications. hydrated is false until the instance has checked the
	// journal's passive index for an earlier life to restore.
	lastSeen []uint64
	sendSeq  uint64
	hydrated bool
}

func (c *coordinator) instance(id string) *coordInstance {
	j := c.host.opts.Journal
	return c.instances.getOrCreate(id, c.host.opts.MaxInstancesPerState, func() *coordInstance {
		inst := &coordInstance{
			counts:   make([]uint32, c.table.NumSources()),
			pending:  make([]uint64, c.table.MaskWords()),
			base:     map[string]string{},
			srcVars:  make([]map[string]string, c.table.NumSources()),
			srcVer:   make([]uint32, c.table.NumSources()),
			hydrated: j == nil,
		}
		if j != nil {
			inst.lastSeen = make([]uint64, c.table.NumSources())
		}
		return inst
	}, c.onEvict)
}

// onEvict is consulted by the instance table when a cap-hit create
// needs room: it runs under the shard mutex, so it may only TryLock the
// victim (see shard.go's lock-order note). A victim with an invocation
// in flight — or one whose mutex is busy — is vetoed. Otherwise, with a
// journal configured, the victim's full state is serialized as a
// passivation record (rehydrated transparently by its next frame); with
// no journal, the state is dropped, counted, and logged loudly. The
// victim is usually a finished instance: nothing else removes those.
func (c *coordinator) onEvict(id string, inst *coordInstance) bool {
	if !inst.mu.TryLock() {
		return false
	}
	defer inst.mu.Unlock()
	if inst.running {
		return false
	}
	// A freshly created object whose first notification has not yet been
	// applied (or whose passive state has not been read back) must not be
	// selected: passivating it would append an EMPTY snapshot that
	// shadows the instance's real record in the journal's passive index,
	// losing every arrival it had accumulated. The creator is about to
	// lock it anyway; veto and let the scan pick an older entry.
	if !inst.hydrated {
		return false
	}
	if j := c.host.opts.Journal; j != nil {
		if err := j.Append(c.snapshotLocked(journal.KindPassivate, id, inst)); err == nil {
			c.host.passivated.Add(1)
			c.host.logf("coord %s/%s: passivated instance %s at cap %d",
				c.composite, c.table.State, id, c.host.opts.MaxInstancesPerState)
			return true
		} else {
			c.host.logf("coord %s/%s: passivation write for %s failed (%v); falling back to LOSSY eviction",
				c.composite, c.table.State, id, err)
		}
	}
	c.host.evicted.Add(1)
	c.host.logf("coord %s/%s: EVICTED instance %s at cap %d with no journal record — usually a finished execution; if it was still live, its state is lost and the execution will stall or fault",
		c.composite, c.table.State, id, c.host.opts.MaxInstancesPerState)
	return true
}

// snapshotLocked serializes inst as a snapshot or passivation record.
// Per-source state is keyed by source NAME so a restart that recompiles
// the plan (possibly interning in a different order) can still map it
// back. Caller holds inst.mu; Append marshals synchronously, so sharing
// the live maps with the record is safe.
func (c *coordinator) snapshotLocked(kind string, instanceID string, inst *coordInstance) *journal.Record {
	var counts map[string]uint32
	var bags map[string]map[string]string
	var seen map[string]uint64
	for i := 0; i < c.table.NumSources(); i++ {
		name := c.table.SourceName(i)
		if inst.counts[i] > 0 {
			if counts == nil {
				counts = map[string]uint32{}
			}
			counts[name] = inst.counts[i]
		}
		if inst.srcVars[i] != nil {
			if bags == nil {
				bags = map[string]map[string]string{}
			}
			bags[name] = inst.srcVars[i]
		}
		if inst.lastSeen != nil && inst.lastSeen[i] > 0 {
			if seen == nil {
				seen = map[string]uint64{}
			}
			seen[name] = inst.lastSeen[i]
		}
	}
	return &journal.Record{
		Kind:      kind,
		Composite: c.composite,
		State:     c.table.State,
		Instance:  instanceID,
		Version:   c.version,
		Vars:      inst.base,
		Counts:    counts,
		SrcVars:   bags,
		LastSeen:  seen,
		FireSeq:   inst.fireSeq,
		SendSeq:   inst.sendSeq,
	}
}

// restoreLocked loads a snapshot/passivation record into inst (fresh or
// being rebuilt by recovery). Sources that are no longer interned —
// plan drift across a restart — fold their bags into the base layer,
// which at worst re-delivers their variables out of canonical order but
// never loses data. Caller holds inst.mu.
func (c *coordinator) restoreLocked(inst *coordInstance, r *journal.Record) {
	for k, v := range r.Vars {
		inst.base[k] = v
	}
	for name, n := range r.Counts {
		if idx, ok := c.table.SourceIndex(name); ok {
			inst.counts[idx] = n
			if n > 0 {
				inst.pending[idx>>6] |= 1 << (idx & 63)
			}
		}
	}
	for name, bag := range r.SrcVars {
		idx, ok := c.table.SourceIndex(name)
		if !ok {
			for k, v := range bag {
				inst.base[k] = v
			}
			continue
		}
		m := make(map[string]string, len(bag))
		for k, v := range bag {
			m[k] = v
		}
		inst.srcVars[idx] = m
		inst.srcVer[idx]++
	}
	if inst.lastSeen != nil {
		for name, s := range r.LastSeen {
			if idx, ok := c.table.SourceIndex(name); ok {
				inst.lastSeen[idx] = s
			}
		}
	}
	inst.fireSeq = r.FireSeq
	inst.sendSeq = r.SendSeq
	inst.merged = nil
}

// rehydrateLocked gives a freshly created instance its earlier life
// back, if the journal holds a passivation record for it. Runs at most
// once per in-RAM object; caller holds inst.mu and has confirmed table
// membership.
func (c *coordinator) rehydrateLocked(instanceID string, inst *coordInstance) {
	if inst.hydrated {
		return
	}
	inst.hydrated = true
	j := c.host.opts.Journal
	if j == nil {
		return
	}
	r, ok, err := j.TakePassive(c.composite, c.table.State, instanceID)
	if err != nil {
		c.host.logf("coord %s/%s: rehydrate %s: %v", c.composite, c.table.State, instanceID, err)
		return
	}
	if !ok {
		return
	}
	c.restoreLocked(inst, r)
	c.host.rehydrated.Add(1)
	c.host.logf("coord %s/%s: rehydrated instance %s (fireSeq %d)",
		c.composite, c.table.State, instanceID, inst.fireSeq)
}

// mergedVarsLocked returns the instance's variable bag (mergeLayers
// over the table's canonical order). The result is cached until the
// next layer write and MUST NOT be mutated by callers. Caller holds
// inst.mu.
func (c *coordinator) mergedVarsLocked(inst *coordInstance) map[string]string {
	if inst.merged == nil {
		inst.merged = mergeLayers(inst.base, c.table.MergeOrder(), inst.srcVars)
	}
	return inst.merged
}

// onNotification processes a start/notify message for one instance.
func (c *coordinator) onNotification(ctx context.Context, m *message.Message) {
	inst := c.instance(m.Instance)
	inst.mu.Lock()
	// Between the table lookup and taking inst.mu, an over-cap create in
	// this shard may have evicted inst — and a later notification may
	// already have re-created the ID. Re-check membership under the lock
	// and chase the current pointer, so one instance's notifications can
	// never split across an orphaned object and its fresh twin (the
	// single-mutex design excluded this by construction; eviction of a
	// live instance still loses its state, as documented, but it must
	// lose it to ONE object).
	for {
		cur, ok := c.instances.get(m.Instance)
		if ok && cur == inst {
			break
		}
		inst.mu.Unlock()
		inst = c.instance(m.Instance)
		inst.mu.Lock()
	}
	// A fresh in-RAM object may be the reincarnation of a passivated
	// instance: restore it from the journal before applying the frame.
	c.rehydrateLocked(m.Instance, inst)
	j := c.host.opts.Journal
	// Senders outside the interned universe appear in no precondition
	// clause and can never contribute to coverage; their variables go to
	// the base layer, the count is dropped.
	if idx, ok := c.table.SourceIndex(m.From); ok {
		// Durable dedup: recovery redelivers the journaled outbound
		// messages of every restored round conservatively — a message the
		// crashed process already delivered (and whose effect this
		// instance already journaled) comes again, and counting it twice
		// would double-arm the AND-join. Sequence-stamped messages at or
		// below the sender's high-water mark are duplicates; unstamped
		// messages (Seq 0: journal-less sender, or a pre-durability peer)
		// pass untouched.
		if j != nil && m.Seq != 0 && inst.lastSeen != nil {
			if seq := uint64(m.Seq); seq <= inst.lastSeen[idx] {
				c.host.logf("coord %s/%s: dropped duplicate frame %s seq %d from %s (seen %d)",
					c.composite, c.table.State, m.Instance, m.Seq, m.From, inst.lastSeen[idx])
				inst.mu.Unlock()
				return
			} else {
				inst.lastSeen[idx] = seq
			}
		}
	}
	// Write-ahead commit point: the arrival becomes durable before its
	// effects do. An append failure degrades durability, never liveness —
	// the frame is still applied.
	if j != nil {
		rec := &journal.Record{
			Kind:      journal.KindArrival,
			Composite: c.composite,
			State:     c.table.State,
			Instance:  m.Instance,
			Version:   c.version,
			Src:       m.From,
			Seq:       uint64(m.Seq),
			Vars:      m.Vars,
		}
		if err := j.Append(rec); err != nil {
			c.host.logf("coord %s/%s: journal arrival append for %s failed: %v",
				c.composite, c.table.State, m.Instance, err)
		}
	}
	if idx, ok := c.table.SourceIndex(m.From); ok {
		bag := inst.srcVars[idx]
		if bag == nil {
			bag = make(map[string]string, len(m.Vars))
			inst.srcVars[idx] = bag
		}
		for k, v := range m.Vars {
			bag[k] = v
		}
		inst.srcVer[idx]++
		inst.counts[idx]++
		inst.pending[idx>>6] |= 1 << (idx & 63)
	} else {
		for k, v := range m.Vars {
			inst.base[k] = v
		}
	}
	inst.merged = nil
	c.maybeFireLocked(ctx, m.Instance, inst)
	inst.mu.Unlock()
}

// maybeFireLocked checks precondition clauses and launches the service
// invocation when one is satisfied: all of its sources have pending
// notifications AND its receiver-side condition (if any) holds on the
// merged variable bag. Clauses whose condition evaluates false keep their
// notifications pending — a later notification may change the bag (or
// satisfy an alternative clause). Caller holds inst.mu.
func (c *coordinator) maybeFireLocked(ctx context.Context, instanceID string, inst *coordInstance) {
	if inst.running {
		return
	}
	// The bag is built lazily, only once some clause is covered: most
	// arrivals at a wide AND-join cover nothing and must stay O(m.Vars),
	// not O(whole bag). The build is cached (inst.merged) across clauses
	// and across arrivals that add no variables.
	var bag map[string]string
	for _, clause := range c.table.Preconditions {
		if !clause.Covered(inst.pending) {
			continue
		}
		if bag == nil {
			bag = c.mergedVarsLocked(inst)
		}
		ok, err := evalGuard(clause.Condition, bag, c.host.funcEnv)
		if err != nil {
			// A receiver-side guard referencing still-missing variables is
			// not an error: the bag may complete later. Anything else is.
			if isUndefinedVar(err) {
				continue
			}
			go c.sendFault(ctx, instanceID, err)
			return
		}
		if !ok {
			continue
		}
		// Consume the notifications of the matched clause so loops re-arm.
		// With a journal, remember WHICH sources were decremented (by
		// name): the round record replays the same decrements on recovery.
		var consumed []string
		for _, idx := range clause.SourceIndexes() {
			if inst.counts[idx] > 0 {
				inst.counts[idx]--
				if c.host.opts.Journal != nil {
					consumed = append(consumed, c.table.SourceName(idx))
				}
			}
			if inst.counts[idx] == 0 {
				inst.pending[idx>>6] &^= 1 << (idx & 63)
			}
		}
		// The firing works on a private snapshot of the bag (applyActions
		// already copies). With no actions to apply, the cached canonical
		// merge ITSELF becomes the snapshot: its only other reference is
		// inst.merged, cleared here, and the layers it was built from are
		// untouched — the next evaluation rebuilds the cache. Ownership
		// transfer instead of an O(bag) copy per firing.
		var snapshot map[string]string
		if len(clause.Actions) > 0 {
			snapshot, err = applyActions(clause.Actions, bag, c.host.funcEnv)
			if err != nil {
				go c.sendFault(ctx, instanceID, err)
				return
			}
		} else {
			snapshot = bag
			inst.merged = nil
		}
		inst.running = true
		inst.fireSeq++
		// Remember each source bag's version at fire time: finish uses it
		// to tell data absorbed into this snapshot from data that arrived
		// while the service ran.
		firedVer := append([]uint32(nil), inst.srcVer...)
		go c.fire(ctx, instanceID, inst.fireSeq, snapshot, firedVer, consumed)
		return
	}
}

// isUndefinedVar reports whether err stems from an undefined variable in
// a guard (receiver-side guards tolerate these until the bag completes).
func isUndefinedVar(err error) bool {
	return err != nil && strings.Contains(err.Error(), "undefined variable")
}

// fire invokes the component service and runs postprocessing. fireSeq
// numbers this firing within the instance; firedVer is the per-source
// bag version vector captured when the snapshot was taken (see finish);
// consumed names the sources whose counts the matched clause
// decremented (journaling only — nil otherwise).
func (c *coordinator) fire(ctx context.Context, instanceID string, fireSeq uint64, vars map[string]string, firedVer []uint32, consumed []string) {
	c.host.logf("coord %s/%s: firing instance %s", c.composite, c.table.State, instanceID)

	params, err := bindInputs(c.table.Inputs, vars, c.host.funcEnv)
	var key string
	if err == nil {
		var resp service.Response
		// The idempotency key names the LOGICAL firing — composite,
		// instance, state, firing number — never the provider that ends
		// up executing it: a community retrying the invocation on an
		// alternative member after a failure replays the cached response
		// instead of executing the operation twice. The same property
		// carries across a CRASH: recovery replays the journal up to the
		// last completed round, so a re-fired interrupted round computes
		// the same fireSeq, presents the same key, and — with the journaled
		// invoke outcome primed back into service.Idempotent — replays the
		// completed invocation instead of executing it a second time.
		key = c.composite + "/" + instanceID + "/" + c.table.State + "/" + strconv.FormatUint(fireSeq, 10)
		resp, err = c.host.registry.Invoke(ctx, service.Request{
			Service:        c.table.Service,
			Operation:      c.table.Operation,
			Params:         params,
			Tenant:         vars[TenantVar],
			IdempotencyKey: key,
		})
		if err == nil {
			bindOutputs(c.table.Outputs, resp.Outputs, vars)
			// Commit point: the invocation's outcome is durable before its
			// effects propagate. Only successes are recorded — Idempotent
			// forgets failures, and so does the journal, so a crash between
			// a failed attempt and its retry re-executes (correct).
			if j := c.host.opts.Journal; j != nil {
				rec := &journal.Record{
					Kind:      journal.KindInvoke,
					Composite: c.composite,
					State:     c.table.State,
					Instance:  instanceID,
					Version:   c.version,
					Service:   c.table.Service,
					Key:       key,
					Outputs:   resp.Outputs,
					FireSeq:   fireSeq,
				}
				if jerr := j.Append(rec); jerr != nil {
					c.host.logf("coord %s/%s: journal invoke append for %s failed: %v",
						c.composite, c.table.State, instanceID, jerr)
				}
			}
		}
	}

	if err != nil {
		c.finish(ctx, instanceID, nil, firedVer, fireSeq, nil, err)
		return
	}
	c.finish(ctx, instanceID, vars, firedVer, fireSeq, consumed, nil)
}

// finish merges results, re-checks pending clauses (loops), and runs the
// postprocessing phase: evaluating each target's precompiled condition on
// the local variable bag and collecting the notifications of the peers
// whose guard holds into a per-destination outbox, flushed once at the
// end of the round — peers co-hosted at one address share a single wire
// frame (per-destination FIFO order preserved).
func (c *coordinator) finish(ctx context.Context, instanceID string, vars map[string]string, firedVer []uint32, fireSeq uint64, consumed []string, invokeErr error) {
	j := c.host.opts.Journal
	inst, _ := c.instances.get(instanceID)
	var box outbox
	built := false
	var postErr error
	if inst != nil {
		inst.mu.Lock()
		if vars != nil {
			// The firing's results (clause actions + service outputs) join
			// the BASE layer. Source bags whose version is unchanged since
			// the fire snapshot was taken are fully ABSORBED by it — their
			// contents already reached the snapshot through the canonical
			// merge — so they are cleared: stale source data must not
			// shadow the fresher results in later evaluations. A bag
			// written DURING the firing keeps its contents and still
			// overrides base, so a loop's fresh notification beats our
			// now-older results.
			var cleared []string
			for i, bag := range inst.srcVars {
				if bag != nil && inst.srcVer[i] == firedVer[i] {
					inst.srcVars[i] = nil
					if j != nil {
						cleared = append(cleared, c.table.SourceName(i))
					}
				}
			}
			for k, v := range vars {
				inst.base[k] = v
			}
			inst.merged = nil
			if j != nil {
				// Commit point: the round record must be journaled INSIDE
				// the same critical section as the absorption above. The
				// journal serializes an instance's records (one WAL shard),
				// so an arrival journaled after this record is an arrival
				// applied after it — replay clears exactly the bags this
				// round absorbed, never a fresher one that interleaved. The
				// outbox is therefore also BUILT here (postprocessing is
				// pure evaluation plus a directory read — instance before
				// directory is fine), so each outbound message's sequence
				// stamp is covered by the record; the flush still happens
				// outside the lock, after it.
				var msgs []journal.OutMsg
				box, msgs, postErr = c.postRound(instanceID, inst, vars)
				built = true
				if postErr == nil {
					rec := &journal.Record{
						Kind:      journal.KindRound,
						Composite: c.composite,
						State:     c.table.State,
						Instance:  instanceID,
						Version:   c.version,
						FireSeq:   fireSeq,
						Consumed:  consumed,
						Cleared:   cleared,
						Vars:      vars,
						SendSeq:   inst.sendSeq,
						Msgs:      msgs,
					}
					if err := j.Append(rec); err != nil {
						c.host.logf("coord %s/%s: journal round append for %s failed: %v",
							c.composite, c.table.State, instanceID, err)
					}
					// Periodic snapshot: bounds replay work (and, after
					// compaction, journal size) for long-lived instances.
					if every := j.SnapshotEvery(); every > 0 && fireSeq%uint64(every) == 0 {
						if err := j.Append(c.snapshotLocked(journal.KindSnapshot, instanceID, inst)); err != nil {
							c.host.logf("coord %s/%s: journal snapshot append for %s failed: %v",
								c.composite, c.table.State, instanceID, err)
						}
					}
				}
			}
		}
		inst.running = false
		inst.mu.Unlock()
	}

	if invokeErr != nil {
		c.sendFault(ctx, instanceID, invokeErr)
		return
	}

	if !built {
		// Journal-less path (or the instance vanished): build the outbox
		// from the snapshot without holding any lock, as before.
		box, _, postErr = c.postRound(instanceID, nil, vars)
	}
	if postErr != nil {
		c.sendFault(ctx, instanceID, postErr)
		return
	}
	if err := box.flush(ctx, c.host.sender); err != nil {
		c.sendFault(ctx, instanceID, fmt.Errorf("engine: notify peers of %s: %w", c.table.State, err))
		return
	}
	c.host.logf("coord %s/%s: instance %s notified %d peer(s) in %d frame(s)",
		c.composite, c.table.State, instanceID, box.msgs(), len(box.addrs))

	// Loops: the consumed clause may already be re-satisfiable.
	if inst, _ := c.instances.get(instanceID); inst != nil {
		inst.mu.Lock()
		c.maybeFireLocked(ctx, instanceID, inst)
		inst.mu.Unlock()
	}
}

// postRound runs the postprocessing phase on the round's final bag:
// each target's precompiled condition is evaluated and the
// notifications of the peers whose guard holds are collected into a
// per-destination outbox. When inst is non-nil (the journaling path;
// caller holds inst.mu), every message is stamped with the instance's
// next send sequence number and also returned in journal form — To is
// the LOGICAL peer, not its address, because recovery re-resolves
// addresses through the directory of the restarted fleet.
func (c *coordinator) postRound(instanceID string, inst *coordInstance, vars map[string]string) (outbox, []journal.OutMsg, error) {
	var box outbox
	var logged []journal.OutMsg
	for _, target := range c.table.Postprocessings {
		ok, err := evalGuard(target.Condition, vars, c.host.funcEnv)
		if err != nil {
			return box, nil, err
		}
		if !ok {
			continue
		}
		outVars := vars
		if len(target.Actions) > 0 {
			outVars, err = applyActions(target.Actions, vars, c.host.funcEnv)
			if err != nil {
				return box, nil, err
			}
		}
		typ := message.TypeNotify
		if target.To == message.WrapperID {
			typ = message.TypeDone
		}
		// Deterministic replica choice: the (instance, tenant) key picks
		// the same replica of target.To on every sender, so all of an
		// instance's notifications converge on one coordinator object.
		// The lookup is pinned to THIS coordinator's plan version: an
		// in-flight instance keeps flowing through the tables it started
		// on even while a newer version is live.
		addr, found := c.host.dir.RouteV(c.composite, c.version, target.To, instanceID, vars[TenantVar])
		if !found {
			return box, nil, fmt.Errorf("engine: no address for peer %q of %s v%d", target.To, c.composite, c.version)
		}
		m := &message.Message{
			Type:      typ,
			Composite: c.composite,
			Instance:  instanceID,
			From:      c.table.State,
			To:        target.To,
			Version:   c.version,
			Vars:      outVars,
		}
		if inst != nil {
			inst.sendSeq++
			m.Seq = int(inst.sendSeq)
			logged = append(logged, journal.OutMsg{Type: string(typ), To: target.To, Seq: inst.sendSeq, Vars: outVars})
		}
		box.add(addr, m)
	}
	return box, logged, nil
}

// sendFault reports a failed firing to the wrapper.
func (c *coordinator) sendFault(ctx context.Context, instanceID string, cause error) {
	addr, found := c.host.lookupWrapper(c.composite, c.version)
	if !found {
		c.host.logf("coord %s/%s: fault with no wrapper address: %v", c.composite, c.table.State, cause)
		return
	}
	m := fault(c.composite, instanceID, c.table.State, cause)
	m.Version = c.version
	if err := c.host.sender.Send(ctx, addr, m); err != nil {
		c.host.logf("coord %s/%s: fault delivery failed: %v (original: %v)", c.composite, c.table.State, err, cause)
	}
}

// bindInputs computes the service call parameters from the instance
// variables per the state's compiled input bindings. A binding with Var
// copies the variable (missing variables are an error: the precondition
// fired, so dataflow should have delivered them); a binding with a
// compiled Expr evaluates it.
func bindInputs(bindings []routing.CompiledBinding, vars map[string]string, funcs expr.Env) (map[string]string, error) {
	if len(bindings) == 0 {
		return nil, nil // nil params: providers read, never write, their input map
	}
	params := make(map[string]string, len(bindings))
	for _, b := range bindings {
		switch {
		case b.Var != "":
			v, ok := vars[b.Var]
			if !ok {
				return nil, fmt.Errorf("engine: input %q needs undefined variable %q", b.Param, b.Var)
			}
			params[b.Param] = v
		case b.Expr != nil:
			v, err := b.Expr.Eval(evalEnv(vars, funcs))
			if err != nil {
				return nil, fmt.Errorf("engine: input %q: %w", b.Param, err)
			}
			params[b.Param] = v.Text()
		}
	}
	return params, nil
}

// bindOutputs copies operation outputs into the instance variable bag per
// the state's output bindings. Unbound outputs are ignored; bound-but-
// missing outputs simply don't set the variable (services may omit
// optional outputs).
func bindOutputs(bindings []statechart.Binding, outputs, vars map[string]string) {
	for _, b := range bindings {
		if v, ok := outputs[b.Param]; ok {
			vars[b.Var] = v
		}
	}
}
