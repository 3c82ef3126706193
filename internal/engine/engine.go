// Package engine executes composite services. It provides the paper's
// peer-to-peer provisioning model — state coordinators co-located with
// their component services, exchanging notifications according to
// precompiled routing tables — plus a centralized baseline orchestrator
// (the architecture the paper argues against) used as the comparator in
// experiments E3/E7.
//
// The pieces:
//
//   - Host (host.go): runs the coordinators of the states whose services
//     live on that node, and answers remote invocation requests.
//   - Wrapper (wrapper.go): the composite service's client-facing shim;
//     starts instances and collects termination notices.
//   - Central (central.go): the baseline hub orchestrator that keeps all
//     control flow on one node.
//
// All components speak the message vocabulary of package message over any
// transport.Network, so the same code runs in-process (tests, benchmarks)
// and over TCP (examples, cmd/hostd).
//
// # Compiled execution plans
//
// The engine never parses a guard expression at runtime. Host.Install,
// NewWrapper, and NewCentral each compile their routing artifact
// (routing.CompileTable / routing.CompilePlan) exactly once, at deploy
// time, and every execution instance shares the resulting immutable
// structures: pre-parsed *expr.Program guards and actions, interned
// notification sources, bitmask precondition coverage, and a function
// environment bound once per composite. The contract this buys is that an
// ill-formed guard fails the DEPLOYMENT (Install/NewWrapper/NewCentral
// return the parse error) and can never fault a running instance; the
// notification hot path is pointer-chasing over prebuilt tables, exactly
// the paper's "the coordinators do not need to implement any complex
// scheduling algorithm" invariant.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"selfserv/internal/expr"
	"selfserv/internal/message"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
)

// TenantVar is the reserved variable carrying the requesting tenant's
// identity through a composite execution. Callers put it in the input
// bag; it rides the ordinary dataflow (start messages, notification
// merges) so every coordinator can attribute its service invocations
// (service.Request.Tenant) to the tenant that started the instance.
// Variables starting with '$' are engine metadata: they are stripped
// from result documents and from the params of remote invocations.
const TenantVar = "$tenant"

// ErrInstanceFault reports that a composite execution failed; the cause
// is in the message carried by the fault.
var ErrInstanceFault = errors.New("engine: instance fault")

// ErrUnknownComposite reports a start request for an undeployed service.
var ErrUnknownComposite = errors.New("engine: unknown composite")

// ErrDraining reports a start request against a wrapper that is draining:
// a newer plan version has been deployed and this endpoint only finishes
// the instances it already owns.
var ErrDraining = errors.New("engine: composite draining")

// Directory maps (composite, plan version, peer ID) to the replica set
// hosting that peer. Peer IDs are state IDs plus message.WrapperID. It
// is the runtime equivalent of the "location" column the paper stores
// in routing tables; the deployer fills it during deployment. Since the
// scale-out work, a peer may be hosted by N replicas: the directory
// stores a precomputed placement.Group per peer and resolves one
// concrete replica per routing key via Route (tenant →
// cell/shuffle-shard, instance → rendezvous). Routing is a pure local
// computation — never an RPC — so every node holding the same directory
// contents routes the same key to the same replica.
//
// Since the redeploy work, each composite keeps SEVERAL peer tables at
// once — one per live plan version — plus a `current` pointer naming
// the version new instances start on. In-flight instances pinned to an
// older version keep resolving against that version's table until the
// platform retires it, so a swap never re-routes a half-finished
// execution. Version 0 is the unversioned namespace: everything written
// through the legacy (version-less) methods lands there, and a
// composite that never saw a versioned deploy behaves exactly as
// before.
//
// Reads are lock-free: the directory keeps its entire contents in an
// immutable copy-on-write snapshot swapped atomically on writes. Writes
// happen a handful of times per composite (deploy, redeploy); lookups
// happen on every notification send, so the coordinator hot path pays
// one atomic load, three map reads, and a few FNV hashes — no RWMutex.
type Directory struct {
	mu   sync.Mutex // lockorder:directory — serializes writers only; never nested
	snap atomic.Pointer[dirSnap]
}

// dirSnap is one immutable directory state: the placement policy and,
// per composite, the versioned peer tables. The policy lives in the
// snapshot so a Route racing a SetPolicy sees a consistent (groups,
// policy) pair.
type dirSnap struct {
	policy placement.Policy
	comps  map[string]*compDir
}

// compDir is one composite's entry: the version new instances start on
// and one peer table per still-live plan version.
type compDir struct {
	current  uint64
	versions map[uint64]map[string]*placement.Group
}

// table returns the peer table for one exact version (nil if absent).
func (cd *compDir) table(version uint64) map[string]*placement.Group {
	if cd == nil {
		return nil
	}
	return cd.versions[version]
}

// NewDirectory returns an empty directory with the zero (no sharding,
// no cells) placement policy.
func NewDirectory() *Directory {
	d := &Directory{}
	d.snap.Store(&dirSnap{comps: map[string]*compDir{}})
	return d
}

// update applies fn to a deep-enough copy of the snapshot under the
// writer lock: the composite map, the changed composite's version map,
// and the changed version's peer map are fresh; the (immutable) groups
// are shared. fn edits the peer table of the given version, or of the
// composite's current version when useCurrent is set.
func (d *Directory) update(composite string, version uint64, useCurrent bool, fn func(byID map[string]*placement.Group, pol placement.Policy)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.snap.Load()
	next := &dirSnap{policy: old.policy, comps: make(map[string]*compDir, len(old.comps)+1)}
	for c, cd := range old.comps {
		next.comps[c] = cd
	}
	oldCD := old.comps[composite]
	cd := &compDir{versions: map[uint64]map[string]*placement.Group{}}
	if oldCD != nil {
		cd.current = oldCD.current
		for v, byID := range oldCD.versions {
			cd.versions[v] = byID
		}
	}
	if useCurrent {
		version = cd.current
	}
	byID := make(map[string]*placement.Group, len(cd.versions[version])+1)
	for id, g := range cd.versions[version] {
		byID[id] = g
	}
	fn(byID, old.policy)
	cd.versions[version] = byID
	next.comps[composite] = cd
	d.snap.Store(next)
}

// SetPolicy installs the placement policy and rebuilds every group of
// every version under it. Deployment configuration: every node of a
// deployment must install the same policy, exactly like the same
// routing tables.
func (d *Directory) SetPolicy(pol placement.Policy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.snap.Load()
	next := &dirSnap{policy: pol, comps: make(map[string]*compDir, len(old.comps))}
	for c, cd := range old.comps {
		rebuilt := &compDir{current: cd.current, versions: make(map[uint64]map[string]*placement.Group, len(cd.versions))}
		for v, byID := range cd.versions {
			byV := make(map[string]*placement.Group, len(byID))
			for id, g := range byID {
				byV[id] = placement.Build(g.Addrs(), pol)
			}
			rebuilt.versions[v] = byV
		}
		next.comps[c] = rebuilt
	}
	d.snap.Store(next)
}

// SetCurrent moves the composite's current pointer to version: new
// instances start on it, unversioned reads resolve against it. A stale
// move (version lower than the current pointer) is rejected — returns
// false — so out-of-order rollout pushes cannot regress a host that
// already activated a newer plan. Activating the version already
// current is an idempotent success.
func (d *Directory) SetCurrent(composite string, version uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.snap.Load()
	oldCD := old.comps[composite]
	if oldCD != nil && version < oldCD.current {
		return false
	}
	if oldCD != nil && version == oldCD.current {
		return true
	}
	next := &dirSnap{policy: old.policy, comps: make(map[string]*compDir, len(old.comps)+1)}
	for c, cd := range old.comps {
		next.comps[c] = cd
	}
	cd := &compDir{current: version, versions: map[uint64]map[string]*placement.Group{}}
	if oldCD != nil {
		for v, byID := range oldCD.versions {
			cd.versions[v] = byID
		}
	}
	next.comps[composite] = cd
	d.snap.Store(next)
	return true
}

// Current returns the version new instances of composite start on
// (zero when the composite is unknown or never saw a versioned deploy).
func (d *Directory) Current(composite string) uint64 {
	if cd := d.snap.Load().comps[composite]; cd != nil {
		return cd.current
	}
	return 0
}

// Versions returns the live plan versions of composite, unordered.
func (d *Directory) Versions(composite string) []uint64 {
	cd := d.snap.Load().comps[composite]
	if cd == nil {
		return nil
	}
	out := make([]uint64, 0, len(cd.versions))
	for v := range cd.versions {
		out = append(out, v)
	}
	return out
}

// RetireVersion drops version's peer table, releasing the routing state
// of a fully drained plan. The current version is never retired (the
// call is ignored); retiring an absent version is a no-op.
func (d *Directory) RetireVersion(composite string, version uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.snap.Load()
	oldCD := old.comps[composite]
	if oldCD == nil || version == oldCD.current {
		return
	}
	if _, ok := oldCD.versions[version]; !ok {
		return
	}
	next := &dirSnap{policy: old.policy, comps: make(map[string]*compDir, len(old.comps))}
	for c, cd := range old.comps {
		next.comps[c] = cd
	}
	cd := &compDir{current: oldCD.current, versions: make(map[uint64]map[string]*placement.Group, len(oldCD.versions))}
	for v, byID := range oldCD.versions {
		if v != version {
			cd.versions[v] = byID
		}
	}
	next.comps[composite] = cd
	d.snap.Store(next)
}

// Policy returns the directory's current placement policy.
func (d *Directory) Policy() placement.Policy { return d.snap.Load().policy }

// Set records that peer id of composite lives at addr — replacing any
// previous replica set with the singleton {addr}. Wrappers (one per
// composite deployment) and single-host deployments use this. Writes
// land in the composite's current version.
func (d *Directory) Set(composite, id, addr string) {
	d.SetReplicas(composite, id, []string{addr})
}

// SetV is Set against one exact plan version.
func (d *Directory) SetV(composite string, version uint64, id, addr string) {
	d.SetReplicasV(composite, version, id, []string{addr})
}

// SetReplicas replaces peer id's replica set in the current version.
func (d *Directory) SetReplicas(composite, id string, addrs []string) {
	d.update(composite, 0, true, func(byID map[string]*placement.Group, pol placement.Policy) {
		byID[id] = placement.Build(addrs, pol)
	})
}

// SetReplicasV replaces peer id's replica set in one exact version.
// Deployers use this to stage v(n+1)'s peer table while v(n) keeps
// serving; SetCurrent flips instances over once the table is complete.
func (d *Directory) SetReplicasV(composite string, version uint64, id string, addrs []string) {
	d.update(composite, version, false, func(byID map[string]*placement.Group, pol placement.Policy) {
		byID[id] = placement.Build(addrs, pol)
	})
}

// AddReplicaV adds addr to peer id's replica set in one exact plan
// version (idempotent). The replica set is a SET: the order AddReplicaV
// calls arrive in does not affect routing, so nodes that learn of
// replicas in different orders still agree.
func (d *Directory) AddReplicaV(composite string, version uint64, id, addr string) {
	d.update(composite, version, false, addReplicaFn(id, addr))
}

func addReplicaFn(id, addr string) func(map[string]*placement.Group, placement.Policy) {
	return func(byID map[string]*placement.Group, pol placement.Policy) {
		var addrs []string
		if g := byID[id]; g != nil {
			addrs = append(addrs, g.Addrs()...)
		}
		byID[id] = placement.Build(append(addrs, addr), pol)
	}
}

// RemoveReplicaV removes addr from peer id's replica set in one exact
// plan version, dropping the peer entirely when no replicas remain.
func (d *Directory) RemoveReplicaV(composite string, version uint64, id, addr string) {
	d.update(composite, version, false, removeReplicaFn(id, addr))
}

func removeReplicaFn(id, addr string) func(map[string]*placement.Group, placement.Policy) {
	return func(byID map[string]*placement.Group, pol placement.Policy) {
		g := byID[id]
		if g == nil {
			return
		}
		addrs := make([]string, 0, g.Len())
		for _, a := range g.Addrs() {
			if a != addr {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			delete(byID, id)
			return
		}
		byID[id] = placement.Build(addrs, pol)
	}
}

// Route resolves the replica of peer id that owns the (instance,
// tenant) routing key, lock-free, against the composite's current
// version. This is THE send-path resolution for coordinator
// notifications: deterministic across nodes, so all notifications of
// one instance converge on the same replica's coordinator state (the
// AND-join counting depends on that).
func (d *Directory) Route(composite, id, instance, tenant string) (string, bool) {
	s := d.snap.Load()
	cd := s.comps[composite]
	if cd == nil {
		return "", false
	}
	g, ok := cd.table(cd.current)[id]
	if !ok {
		return "", false
	}
	return g.Pick(tenant, instance, s.policy)
}

// RouteV resolves against one exact plan version — what an in-flight
// instance pinned to version uses so a swap never re-routes it. No
// fallback: a missing version reports false and the caller decides
// (host.go re-routes stale-snapshot frames, wrappers fault loudly).
func (d *Directory) RouteV(composite string, version uint64, id, instance, tenant string) (string, bool) {
	s := d.snap.Load()
	g, ok := s.comps[composite].table(version)[id]
	if !ok {
		return "", false
	}
	return g.Pick(tenant, instance, s.policy)
}

// Lookup resolves the canonical first replica of peer id in the current
// version without taking any lock. Kept for singleton peers (the
// wrapper) and as the single-replica compatibility read; replicated
// peers should be resolved with Route.
func (d *Directory) Lookup(composite, id string) (string, bool) {
	cd := d.snap.Load().comps[composite]
	if cd == nil {
		return "", false
	}
	g, ok := cd.table(cd.current)[id]
	if !ok {
		return "", false
	}
	return g.First()
}

// LookupV is Lookup against one exact plan version.
func (d *Directory) LookupV(composite string, version uint64, id string) (string, bool) {
	g, ok := d.snap.Load().comps[composite].table(version)[id]
	if !ok {
		return "", false
	}
	return g.First()
}

// Replicas returns a copy of peer id's replica list (sorted) in the
// current version.
func (d *Directory) Replicas(composite, id string) []string {
	cd := d.snap.Load().comps[composite]
	if cd == nil {
		return nil
	}
	g, ok := cd.table(cd.current)[id]
	if !ok {
		return nil
	}
	return append([]string(nil), g.Addrs()...)
}

// Peers returns the peer->first-replica map for composite's current
// version — the single-host view, kept for displays and single-replica
// callers.
func (d *Directory) Peers(composite string) map[string]string {
	cd := d.snap.Load().comps[composite]
	var byID map[string]*placement.Group
	if cd != nil {
		byID = cd.table(cd.current)
	}
	out := make(map[string]string, len(byID))
	for id, g := range byID {
		if addr, ok := g.First(); ok {
			out[id] = addr
		}
	}
	return out
}

// Funcs is a registry of guard functions (e.g. the travel scenario's
// domestic(...) and near(...)) made available to every condition
// evaluation. Both coordinators (postprocessing) and wrappers (start
// conditions) use it.
type Funcs map[string]expr.Func

// Env returns the function-resolution layer shared by every evaluation of
// a composite. Built once (at deploy time) and chained under a
// per-evaluation variable layer; see evalEnv.
func (f Funcs) Env() expr.Env { return expr.FuncsEnv(f) }

// evalEnv builds the two-layer evaluation environment for one variable
// bag: a lazy text-variable layer over the composite's shared function
// layer. The only per-evaluation work is one small slice allocation —
// functions are never re-bound and variables are converted on lookup.
func evalEnv(vars map[string]string, funcs expr.Env) expr.Env {
	return expr.ChainEnv{expr.TextVars(vars), funcs}
}

// mergeLayers builds the CANONICAL variable bag from a base layer plus
// per-source bags overlaid in the compiled merge order (sorted source
// IDs; see routing's MergeOrder/FinishMergeOrder). This is the single
// definition of the order-independence invariant both coordinators and
// wrappers rely on: every receiver of the same set of notifications
// computes the same bag, regardless of arrival order — the seed-8
// AND-join fix. Any change to merge semantics goes here, once.
func mergeLayers(base map[string]string, order []int, srcVars []map[string]string) map[string]string {
	out := make(map[string]string, len(base)+4)
	for k, v := range base {
		out[k] = v
	}
	for _, idx := range order {
		for k, v := range srcVars[idx] {
			out[k] = v
		}
	}
	return out
}

// evalGuard evaluates a precompiled guard against vars; a nil guard
// (statically true, e.g. the empty condition) is true without touching
// the environment.
func evalGuard(g *expr.Program, vars map[string]string, funcs expr.Env) (bool, error) {
	if g == nil {
		return true, nil
	}
	ok, err := g.EvalBool(evalEnv(vars, funcs))
	if err != nil {
		return false, fmt.Errorf("engine: condition %q: %w", g.Source(), err)
	}
	return ok, nil
}

// applyActions evaluates precompiled assignments against vars and returns
// a NEW bag with the results merged (the input map is never mutated).
func applyActions(actions []routing.CompiledAssignment, vars map[string]string, funcs expr.Env) (map[string]string, error) {
	out := make(map[string]string, len(vars)+len(actions))
	for k, v := range vars {
		out[k] = v
	}
	for _, a := range actions {
		v, err := a.Expr.Eval(evalEnv(out, funcs))
		if err != nil {
			return nil, fmt.Errorf("engine: action %s := %s: %w", a.Var, a.Expr.Source(), err)
		}
		out[a.Var] = v.Text()
	}
	return out, nil
}

// fault constructs a fault message for an instance.
func fault(composite, instance, from string, err error) *message.Message {
	return &message.Message{
		Type:      message.TypeFault,
		Composite: composite,
		Instance:  instance,
		From:      from,
		To:        message.WrapperID,
		Error:     err.Error(),
	}
}
