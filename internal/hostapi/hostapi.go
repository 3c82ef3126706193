// Package hostapi is the administration protocol of a SELF-SERV host
// daemon: the HTTP surface the service deployer uses to upload routing
// tables "into the hosts of the corresponding component services" when
// deployer and hosts live in different processes (cmd/hostd +
// cmd/selfserv). In-process deployments use engine.Host.Install directly
// and never touch this package.
//
// Endpoints (all under the admin address):
//
//	GET  /info                         -> coordinator transport address, services, states
//	POST /install?composite=C          -> body: routing table XML; installs a coordinator
//	                                     (the table's version attribute scopes it)
//	POST /uninstall?composite=C&state=S[&version=N] -> removes the state's coordinator
//	                                     (deploy rollback; version 0 = unversioned)
//	POST /directory?composite=C[&version=N] -> body: "peerID addr" lines; records peer
//	                                     locations (repeated peerIDs accumulate a
//	                                     replica set). Versioned pushes are rejected
//	                                     with 409 when older than one already applied.
//	POST /activate?composite=C&version=N -> flips the composite's current version; 409
//	                                     when N is older than the active version
//	POST /retire?composite=C&version=N -> drops version N's coordinators and routes
//	POST /recover                      -> replays the daemon's durability journal
//	                                     (409 when the daemon runs journal-less);
//	                                     call AFTER tables are reinstalled so the
//	                                     replayed instances have coordinators to
//	                                     land on (docs/durability.md)
//	GET  /recover                      -> recovery status JSON
//	GET  /healthz                      -> 200 ok
//
// Versioned pushes make a fleet rollout safe without cross-host
// transactions: each push is atomic per host, the version stamp totally
// orders pushes per composite, and a control plane retrying or racing
// another one can never regress a host to an older snapshot.
package hostapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"selfserv/internal/engine"
	"selfserv/internal/routing"
)

// Info describes a host daemon.
type Info struct {
	// CoordAddr is the transport address coordinators listen on.
	CoordAddr string `json:"coordAddr"`
	// Services are the provider names available locally.
	Services []string `json:"services"`
	// States maps composite -> state IDs installed here.
	States map[string][]string `json:"states"`
}

// Server exposes one engine.Host over HTTP.
type Server struct {
	host     *engine.Host
	dir      *engine.Directory
	services func() []string
	mux      *http.ServeMux

	// recoverFn, when set (SetRecoverFunc), replays the daemon's
	// durability journal; nil means the daemon runs journal-less and
	// POST /recover is a 409.
	recoverFn func(context.Context) (engine.RecoveryStats, error)

	mu        sync.Mutex // lockorder:hostapi — guards installed/dirVersion/recovery only; HTTP handlers run concurrently
	recovery  RecoveryStatus
	installed map[string][]string
	// dirVersion is the newest directory version applied per composite;
	// older pushes are rejected (409) instead of replacing a newer
	// snapshot. Unversioned (v0) pushes bypass the check for backward
	// compatibility.
	dirVersion map[string]uint64
}

// NewServer wraps host (with its directory) in an admin API. services
// reports the local provider names for /info.
func NewServer(host *engine.Host, dir *engine.Directory, services func() []string) *Server {
	s := &Server{
		host:       host,
		dir:        dir,
		services:   services,
		mux:        http.NewServeMux(),
		installed:  map[string][]string{},
		dirVersion: map[string]uint64{},
	}
	s.mux.HandleFunc("/info", s.handleInfo)
	s.mux.HandleFunc("/install", s.handleInstall)
	s.mux.HandleFunc("/uninstall", s.handleUninstall)
	s.mux.HandleFunc("/directory", s.handleDirectory)
	s.mux.HandleFunc("/activate", s.handleActivate)
	s.mux.HandleFunc("/retire", s.handleRetire)
	s.mux.HandleFunc("/recover", s.handleRecover)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// RecoveryStatus is the /recover resource: whether this daemon journals
// at all, whether a replay has run, and what the last replay did.
type RecoveryStatus struct {
	// Configured reports whether the daemon has a durability journal
	// (a recover function was installed).
	Configured bool `json:"configured"`
	// Ran reports whether a replay has been triggered on this daemon.
	Ran bool `json:"ran"`
	// Stats is the last replay's outcome (zero until Ran).
	Stats engine.RecoveryStats `json:"stats"`
	// Error is the last replay's failure, "" on success.
	Error string `json:"error,omitempty"`
}

// SetRecoverFunc installs the journal-replay hook behind POST /recover
// (typically core.Platform.Recover). Without one the endpoint reports
// the daemon as journal-less.
func (s *Server) SetRecoverFunc(fn func(context.Context) (engine.RecoveryStats, error)) {
	s.mu.Lock()
	s.recoverFn = fn
	s.recovery.Configured = fn != nil
	s.mu.Unlock()
}

// handleRecover serves the recovery resource: GET reports status, POST
// replays the journal synchronously and reports what it rebuilt. The
// control plane calls POST after re-activating a release on a restarted
// daemon, so replayed instances find live coordinators (recovery-aware
// activation).
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		s.mu.Lock()
		fn := s.recoverFn
		s.mu.Unlock()
		if fn == nil {
			http.Error(w, "durability is not configured on this daemon", http.StatusConflict)
			return
		}
		stats, err := fn(r.Context())
		s.mu.Lock()
		s.recovery.Ran = true
		s.recovery.Stats = stats
		if err != nil {
			s.recovery.Error = err.Error()
		} else {
			s.recovery.Error = ""
		}
		s.mu.Unlock()
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	st := s.recovery
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if st.Error != "" {
		w.WriteHeader(http.StatusInternalServerError)
	}
	json.NewEncoder(w).Encode(st)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info := Info{
		CoordAddr: s.host.Addr(),
		Services:  s.services(),
		States:    map[string][]string{},
	}
	s.mu.Lock()
	composites := make([]string, 0, len(s.installed))
	for composite := range s.installed {
		composites = append(composites, composite)
	}
	s.mu.Unlock()
	for _, composite := range composites {
		states := s.host.States(composite)
		sort.Strings(states)
		info.States[composite] = states
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	composite := r.URL.Query().Get("composite")
	if composite == "" {
		http.Error(w, "missing composite parameter", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	table, err := routing.UnmarshalTable(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.host.Install(composite, table); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.mu.Lock()
	s.installed[composite] = append(s.installed[composite], table.State)
	s.mu.Unlock()
	fmt.Fprintf(w, "installed %s/%s\n", composite, table.State)
}

func (s *Server) handleUninstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	composite := r.URL.Query().Get("composite")
	state := r.URL.Query().Get("state")
	if composite == "" || state == "" {
		http.Error(w, "missing composite or state parameter", http.StatusBadRequest)
		return
	}
	version, ok := versionParam(w, r)
	if !ok {
		return
	}
	s.host.Uninstall(composite, state, version)
	s.mu.Lock()
	kept := s.installed[composite][:0]
	for _, st := range s.installed[composite] {
		if st != state {
			kept = append(kept, st)
		}
	}
	if len(kept) == 0 {
		delete(s.installed, composite)
	} else {
		s.installed[composite] = kept
	}
	s.mu.Unlock()
	fmt.Fprintf(w, "uninstalled %s/%s\n", composite, state)
}

func (s *Server) handleDirectory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	composite := r.URL.Query().Get("composite")
	if composite == "" {
		http.Error(w, "missing composite parameter", http.StatusBadRequest)
		return
	}
	version, ok := versionParam(w, r)
	if !ok {
		return
	}
	// Group the lines by peer ID first, then install each peer's FULL
	// replica set atomically: a repeated ID accumulates replicas, and a
	// re-push replaces the old set instead of merging with it.
	scanner := bufio.NewScanner(io.LimitReader(r.Body, 1<<20))
	replicas := map[string][]string{}
	var order []string
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			http.Error(w, fmt.Sprintf("malformed directory line %q", line), http.StatusBadRequest)
			return
		}
		if _, seen := replicas[fields[0]]; !seen {
			order = append(order, fields[0])
		}
		replicas[fields[0]] = append(replicas[fields[0]], fields[1])
	}
	if err := scanner.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if version != 0 {
		// Monotonicity gate: the whole push is accepted or rejected BEFORE
		// any replica set changes, so a stale control plane (retry storm,
		// two racing rollouts) can never half-apply an older snapshot over
		// a newer one.
		s.mu.Lock()
		if last := s.dirVersion[composite]; version < last {
			s.mu.Unlock()
			http.Error(w, fmt.Sprintf("stale directory push: version %d < applied %d", version, last), http.StatusConflict)
			return
		}
		s.dirVersion[composite] = version
		s.mu.Unlock()
		for _, id := range order {
			s.dir.SetReplicasV(composite, version, id, replicas[id])
		}
	} else {
		for _, id := range order {
			s.dir.SetReplicas(composite, id, replicas[id])
		}
	}
	fmt.Fprintf(w, "recorded %d peer(s) for %s\n", len(order), composite)
}

// handleActivate flips the composite's current plan version: new
// instances start on it, in-flight ones keep their pinned version. A
// stale activation (older than the active version) is a 409.
func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	composite, version, ok := s.compositeVersion(w, r)
	if !ok {
		return
	}
	if !s.dir.SetCurrent(composite, version) {
		http.Error(w, fmt.Sprintf("stale activation: version %d < current %d", version, s.dir.Current(composite)), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "activated %s v%d\n", composite, version)
}

// handleRetire drops a drained plan version: its coordinators leave the
// host and its routes leave the directory.
func (s *Server) handleRetire(w http.ResponseWriter, r *http.Request) {
	composite, version, ok := s.compositeVersion(w, r)
	if !ok {
		return
	}
	s.host.RetireVersion(composite, version)
	s.dir.RetireVersion(composite, version)
	fmt.Fprintf(w, "retired %s v%d\n", composite, version)
}

// compositeVersion parses the composite and mandatory version params of
// a POST admin request, writing the error response itself on failure.
func (s *Server) compositeVersion(w http.ResponseWriter, r *http.Request) (string, uint64, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return "", 0, false
	}
	composite := r.URL.Query().Get("composite")
	if composite == "" {
		http.Error(w, "missing composite parameter", http.StatusBadRequest)
		return "", 0, false
	}
	raw := r.URL.Query().Get("version")
	if raw == "" {
		http.Error(w, "missing version parameter", http.StatusBadRequest)
		return "", 0, false
	}
	version, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad version parameter %q", raw), http.StatusBadRequest)
		return "", 0, false
	}
	return composite, version, true
}

// versionParam parses an optional version query parameter (default 0),
// writing the error response itself on failure.
func versionParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return 0, true
	}
	version, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad version parameter %q", raw), http.StatusBadRequest)
		return 0, false
	}
	return version, true
}

// Client drives a remote host daemon's admin API.
type Client struct {
	// BaseURL is the admin address, e.g. "http://10.0.0.5:7070".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Info fetches the daemon's description.
func (c *Client) Info() (*Info, error) {
	resp, err := c.http().Get(c.BaseURL + "/info")
	if err != nil {
		return nil, fmt.Errorf("hostapi: info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("hostapi: info: HTTP %d", resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("hostapi: info: %w", err)
	}
	return &info, nil
}

// Install uploads one routing table.
func (c *Client) Install(composite string, table *routing.Table) error {
	data, err := routing.MarshalTable(table)
	if err != nil {
		return err
	}
	return c.post(fmt.Sprintf("/install?composite=%s", composite), "text/xml", data)
}

// Uninstall removes one state's coordinator from the daemon (the
// deployer's rollback path). Version 0 targets the unversioned
// namespace; the parameter is omitted on the wire for old daemons.
func (c *Client) Uninstall(composite, state string, version uint64) error {
	path := fmt.Sprintf("/uninstall?composite=%s&state=%s", composite, state)
	if version != 0 {
		path += fmt.Sprintf("&version=%d", version)
	}
	return c.post(path, "text/plain", nil)
}

// Activate flips the composite's current plan version on the daemon.
func (c *Client) Activate(composite string, version uint64) error {
	return c.post(fmt.Sprintf("/activate?composite=%s&version=%d", composite, version), "text/plain", nil)
}

// Retire drops a drained plan version from the daemon.
func (c *Client) Retire(composite string, version uint64) error {
	return c.post(fmt.Sprintf("/retire?composite=%s&version=%d", composite, version), "text/plain", nil)
}

// Recover replays the daemon's durability journal and returns what it
// rebuilt. Daemons running journal-less answer 409, surfaced as an
// error here. Call after the daemon's tables are reinstalled.
func (c *Client) Recover() (*RecoveryStatus, error) {
	resp, err := c.http().Post(c.BaseURL+"/recover", "text/plain", nil)
	if err != nil {
		return nil, fmt.Errorf("hostapi: recover: %w", err)
	}
	return decodeRecovery(resp)
}

// RecoveryStatus fetches the daemon's recovery status without
// triggering a replay.
func (c *Client) RecoveryStatus() (*RecoveryStatus, error) {
	resp, err := c.http().Get(c.BaseURL + "/recover")
	if err != nil {
		return nil, fmt.Errorf("hostapi: recovery status: %w", err)
	}
	return decodeRecovery(resp)
}

func decodeRecovery(resp *http.Response) (*RecoveryStatus, error) {
	defer resp.Body.Close()
	var st RecoveryStatus
	switch resp.StatusCode {
	case http.StatusOK, http.StatusInternalServerError:
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return nil, fmt.Errorf("hostapi: recover: %w", err)
		}
		if st.Error != "" {
			return &st, fmt.Errorf("hostapi: recover: %s", st.Error)
		}
		return &st, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("hostapi: recover: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
}

// PushReplicaDirectory records each peer's full replica set on the
// daemon (repeated "peerID addr" lines on the wire — old daemons that
// last-write-win on repeats simply keep one replica).
func (c *Client) PushReplicaDirectory(composite string, peers map[string][]string) error {
	return c.PushReplicaDirectoryV(composite, 0, peers)
}

// PushReplicaDirectoryV is PushReplicaDirectory stamped with a plan
// version: the daemon stages the snapshot under that version and
// rejects it (409) if it has already applied a newer one.
func (c *Client) PushReplicaDirectoryV(composite string, version uint64, peers map[string][]string) error {
	var sb strings.Builder
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, addr := range peers[id] {
			fmt.Fprintf(&sb, "%s %s\n", id, addr)
		}
	}
	path := fmt.Sprintf("/directory?composite=%s", composite)
	if version != 0 {
		path += fmt.Sprintf("&version=%d", version)
	}
	return c.post(path, "text/plain", []byte(sb.String()))
}

func (c *Client) post(path, contentType string, body []byte) error {
	resp, err := c.http().Post(c.BaseURL+path, contentType, strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("hostapi: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("hostapi: %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// RemoteInstaller adapts a Client to deployer.Installer, so the standard
// deployer drives remote daemons exactly like in-process hosts.
type RemoteInstaller struct {
	Client *Client
	// CoordAddr caches the daemon's transport address (from Info).
	CoordAddr string
}

// NewRemoteInstaller resolves a daemon's transport address and returns an
// installer for it.
func NewRemoteInstaller(adminURL string) (*RemoteInstaller, error) {
	c := &Client{BaseURL: adminURL}
	info, err := c.Info()
	if err != nil {
		return nil, err
	}
	return &RemoteInstaller{Client: c, CoordAddr: info.CoordAddr}, nil
}

// Install implements deployer.Installer.
func (ri *RemoteInstaller) Install(composite string, table *routing.Table) error {
	return ri.Client.Install(composite, table)
}

// Uninstall implements deployer.Installer (the rollback path). Errors
// are swallowed: rollback is best-effort over hosts that may be the
// very ones that just failed.
func (ri *RemoteInstaller) Uninstall(composite, state string, version uint64) {
	_ = ri.Client.Uninstall(composite, state, version)
}

// Addr implements deployer.Installer: the coordinator transport address
// (what peers must dial), not the admin URL.
func (ri *RemoteInstaller) Addr() string { return ri.CoordAddr }
