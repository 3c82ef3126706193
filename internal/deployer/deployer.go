// Package deployer implements the service deployer module of the SELF-
// SERV service manager: it compiles a composite service's statechart into
// routing tables (package routing) and uploads each state's table onto
// the host of the corresponding component service (§3: "generating the
// control-flow routing tables of each state ... and uploading these
// tables into the hosts of the component services").
package deployer

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"selfserv/internal/routing"
	"selfserv/internal/statechart"
)

// Installer is one deployment target — a node that can accept a routing
// table for a state whose component service it hosts. engine.Host
// implements it.
type Installer interface {
	// Install registers the state's coordinator on the node.
	Install(composite string, table *routing.Table) error
	// Uninstall removes one plan version of the state's coordinator
	// again (version 0 is the unversioned namespace). Deploy uses it to
	// roll back the already-installed states of a failed deployment;
	// uninstalling a state that was never installed must be a no-op.
	Uninstall(composite, state string, version uint64)
	// Addr identifies the node (for error messages and reports).
	Addr() string
}

// CompiledInstaller is an Installer that can accept the deployer's
// already-compiled table directly, skipping a second parse. engine.Host
// implements it; remote installers (hostapi.Client) ship the declarative
// XML and compile on the far side.
type CompiledInstaller interface {
	InstallCompiled(composite string, table *routing.CompiledTable) error
}

// Placement maps component-service names to the replica set hosting
// them. Every service referenced by the statechart must have at least
// one replica; each state's routing table is installed on EVERY replica
// of its service, so any replica can coordinate any instance and the
// engine's deterministic (instance, tenant) routing picks which one
// does (see internal/placement and docs/scaleout.md).
type Placement map[string][]Installer

// Deployment is the result of a successful deploy.
type Deployment struct {
	// Plan is the declarative routing plan.
	Plan *routing.Plan
	// Compiled is the plan's compiled execution form: every guard and
	// action pre-parsed, precondition sources interned. Wrappers and the
	// centralized baseline interpret this shared artifact directly.
	Compiled *routing.CompiledPlan
	// Hosts maps each state ID to the replica addresses it was installed
	// on (sorted by install order, which follows the placement's slice
	// order).
	Hosts map[string][]string
}

// Deploy validates and compiles the statechart, then uploads each state's
// routing table to every replica host of its component service.
// Compilation — including parsing every guard, precondition, and action
// expression — happens HERE, before any host is touched: deployment is
// the only place a parse error can surface. Deploy fails without side
// effects: if compilation fails or any service is unplaced nothing is
// touched, and if any replica's Install errors mid-way, the states
// already installed are rolled back (Installer.Uninstall, reverse
// order) before the error is returned.
//
// Redeploys are version-scoped: DeployVersion stamps every table with
// the given plan version, installs land under (composite, state,
// version) keys, and rollback uninstalls ONLY that version — a failed
// redeploy of an already-live composite leaves the previous version's
// coordinators untouched and serving. (Before versioning, rollback
// uninstalled by (composite, state) and tore down the live coordinators
// it had replaced up to the failure point.)
func Deploy(sc *statechart.Statechart, placement Placement) (*Deployment, error) {
	return DeployVersion(sc, placement, 0)
}

// DeployVersion is Deploy with an explicit plan version (0 = the
// unversioned legacy namespace). core.Platform allocates a fresh,
// monotonically increasing version per (re)deploy of a composite.
func DeployVersion(sc *statechart.Statechart, placement Placement, version uint64) (*Deployment, error) {
	plan, err := routing.Generate(sc)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	plan.SetVersion(version)
	compiled, err := routing.CompilePlan(plan)
	if err != nil {
		return nil, err
	}
	// Check placement before touching any host.
	ids := make([]string, 0, len(plan.Tables))
	for id := range plan.Tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		tbl := plan.Tables[id]
		if len(placement[tbl.Service]) == 0 {
			return nil, fmt.Errorf("deployer: composite %q: service %q (state %q) has no placement", sc.Name, tbl.Service, id)
		}
		for _, host := range placement[tbl.Service] {
			if host == nil {
				return nil, fmt.Errorf("deployer: composite %q: service %q (state %q) has a nil replica", sc.Name, tbl.Service, id)
			}
		}
	}
	// installed records every (state, host) pair that succeeded, in
	// order, so a failure can unwind them newest-first.
	type installStep struct {
		id   string
		host Installer
	}
	var installed []installStep
	rollback := func() {
		for i := len(installed) - 1; i >= 0; i-- {
			installed[i].host.Uninstall(sc.Name, installed[i].id, version)
		}
	}
	dep := &Deployment{Plan: plan, Compiled: compiled, Hosts: map[string][]string{}}
	for _, id := range ids {
		tbl := plan.Tables[id]
		for _, host := range placement[tbl.Service] {
			var err error
			if ci, ok := host.(CompiledInstaller); ok {
				// Hand the host the table we already compiled: one parse
				// per deployment, shared by every instance and replica.
				err = ci.InstallCompiled(sc.Name, compiled.Tables[id])
			} else {
				err = host.Install(sc.Name, tbl)
			}
			if err != nil {
				rollback()
				return nil, fmt.Errorf("deployer: install state %q on %s: %w", id, host.Addr(), err)
			}
			installed = append(installed, installStep{id, host})
			dep.Hosts[id] = append(dep.Hosts[id], host.Addr())
		}
	}
	return dep, nil
}

// WritePlanFiles persists the plan and its per-state tables as XML files
// under dir, mirroring the paper's "routing tables are stored in plain
// files" default. The plan goes to <composite>.plan.xml and each table to
// <composite>.<state>.table.xml. The directory is created if needed.
func WritePlanFiles(dir string, plan *routing.Plan) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("deployer: %w", err)
	}
	data, err := routing.MarshalPlan(plan)
	if err != nil {
		return err
	}
	planPath := filepath.Join(dir, plan.Composite+".plan.xml")
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return fmt.Errorf("deployer: %w", err)
	}
	ids := make([]string, 0, len(plan.Tables))
	for id := range plan.Tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		data, err := routing.MarshalTable(plan.Tables[id])
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s.%s.table.xml", plan.Composite, id))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("deployer: %w", err)
		}
	}
	return nil
}

// ReadPlanFile loads a plan persisted by WritePlanFiles.
func ReadPlanFile(path string) (*routing.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("deployer: %w", err)
	}
	defer f.Close()
	return routing.ReadPlan(f)
}
