// Command perfbench is the SELF-SERV benchmark: closed-loop executions
// of a composite service on an assembled platform, with output checks,
// end-to-end metrics from an untraced run and a per-layer breakdown from
// a traced one. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload chain8-inmem --seed 1 --seconds 10 --trace 0
//
// It prints its environment, the latency sample counts, the traced
// run's latency reconciliation, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	setups         = 5               // set-ups per run; setup_s is the cheapest
	warmExecs      = 500             // warm-up executions per client, counted as set-up
	historyExecs   = 2000            // executions in the journal the recovery probe replays
	recoveries     = 3               // recovery trials on durable workloads; recover_s is the cheapest
	journalReplays = 3               // replays of the recovered history through the journal alone
	restartTime    = 2 * time.Second // restart trials on journal-off workloads
	sampleExecs    = 64              // executions per client whose frames the codec replay uses
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's outcome.
type bench struct {
	s       spec
	pools   [][]request
	scratch string
	out     string
	res     result
	errs    []string
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for temporary files and span dumps")
	flag.Parse()
	var s spec
	for _, c := range specs {
		if c.name == *name {
			s = c
		}
	}
	if s.name == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(*out, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(filepath.Join(*out, "tmp"), s.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{s: s, pools: s.inputs(*seed), scratch: scratch, out: *out,
		res: result{Correct: true, Metrics: map[string]metric{}}}
	fmt.Printf("env: workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s clients=%d\n",
		s.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients)
	d := time.Duration(*seconds) * time.Second
	defs := endToEnd
	if *trace == 0 {
		err = b.endToEnd(d)
	} else {
		defs = perLayer
		err = b.perLayer(d)
	}
	os.RemoveAll(scratch)
	if err == nil {
		b.res.Metrics, err = selectMetrics(b.res.Metrics, defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range b.errs {
		fmt.Println("check failed:", e)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// set records a measured metric; its unit comes from the metric tables.
func (b *bench) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	b.res.Metrics[name] = metric{v, unit}
}

func (b *bench) fail(format string, args ...any) {
	b.res.Correct = false
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// count folds a phase's executions into attempted/failed.
func (b *bench) count(what string, r phaseResult) {
	b.res.Attempted += r.completed + r.failed
	b.res.Failed += r.failed
	if r.failed > 0 {
		b.fail("%s: %d of %d executions failed; first: %v", what, r.failed, r.completed+r.failed, r.firstErr)
	}
}

// setup assembles the fleet several times, each time with its first
// execution and a fixed warm-up, and keeps the last one running.
//
// setup_s is the CPU time (user and system, all threads) of the
// cheapest set-up, not its wall time. On a shared machine other tenants
// can take the CPUs away for minutes, which doubles wall times of the
// same work; CPU time leaves that out and still grows with any work
// moved into set-up. The wall times are printed next to it.
func (b *bench) setup() (*fleet, error) {
	var wall, cpu, hosts, deploy, first []float64
	var f *fleet
	for k := 0; k < setups; k++ {
		if f != nil {
			f.close()
		}
		runtime.GC() // the last fleet's heap is garbage; no set-up pays for it
		dir := ""
		if b.s.durable {
			dir = filepath.Join(b.scratch, fmt.Sprintf("journal-%d", k))
		}
		t0, c0 := time.Now(), processCPU()
		var st setupTimes
		var err error
		f, st, err = assemble(b.s, nil, dir)
		if err != nil {
			return nil, err
		}
		fr := runPhase(f.comp, b.pools[:1], 1, 0, 1, fmt.Sprintf("f%d-", k), nil)
		st.firstExec = fr.wall
		b.count("first execution", fr)
		b.count("warm-up", runPhase(f.comp, b.pools, b.s.roundLen(), 0, warmExecs/b.s.roundLen(), fmt.Sprintf("w%d-", k), nil))
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (processCPU() - c0).Seconds())
		hosts = append(hosts, ms(st.addHosts))
		deploy = append(deploy, ms(st.deploy))
		first = append(first, ms(st.firstExec))
	}
	b.set("setup_s", slices.Min(cpu))
	b.set("core.add_hosts_ms", median(hosts))
	b.set("core.deploy_ms", median(deploy))
	b.set("core.first_exec_ms", median(first))
	fmt.Printf("setup: %d set-ups, wall seconds %s, cpu seconds %s\n", setups, floats(wall), floats(cpu))
	return f, nil
}

// burn drives f to its steady state before anything is timed: every
// coordinator table at the cap. Statistics never include these
// executions, and neither does setup_s: they are executions, and the
// timed phase measures what they cost.
func (b *bench) burn(f *fleet, prefix string) {
	rounds := b.s.burnIn() / clients / b.s.roundLen()
	b.count("burn-in", runPhase(f.comp, b.pools, b.s.roundLen(), 0, rounds, prefix, nil))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ints(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(parts, " ")
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// endToEnd is the untraced run: the metrics a user of the platform sees.
func (b *bench) endToEnd(d time.Duration) error {
	f, err := b.setup()
	if err != nil {
		return err
	}
	b.burn(f, "b")
	c0 := readCounters()
	r := runPhase(f.comp, b.pools, b.s.roundLen(), d, 0, "t", nil)
	c1 := readCounters()
	rss := maxRSSMB()
	f.close()
	b.count("timed phase", r)
	if r.completed == 0 {
		return errors.New("no execution completed")
	}
	n := float64(r.completed)
	b.latencies(r, d)
	b.set("cpu_us_per_exec", float64(c1.cpu-c0.cpu)/1e3/n)
	b.set("allocs_per_exec", float64(c1.allocs-c0.allocs)/n)
	b.set("max_rss_mb", rss)
	_, err = b.restartProbe()
	return err
}

// latencies reports a timed phase's throughput and latency.
func (b *bench) latencies(r phaseResult, d time.Duration) {
	// Throughput is the upper quartile of one-second windows: load from
	// outside the benchmark only ever slows a window down, so in a run
	// where it comes and goes the faster windows are the steadier figure.
	var rate []int64
	for _, w := range windows(r.done, int64(time.Second), int64(d)) {
		rate = append(rate, int64(w))
	}
	upper, _ := percentile(rate, 75)
	p50, _ := percentile(r.lat, 50)
	p99, beyond := percentile(r.lat, 99)
	fmt.Printf("latency: samples=%d p50=%.4gms p99=%.4gms samples_beyond_p99=%d\nexecs per 1s window: %s\n",
		r.completed, ms(time.Duration(p50)), ms(time.Duration(p99)), beyond, ints(rate))
	b.set("execs_per_s", float64(upper))
	b.set("latency_p50_ms", ms(time.Duration(p50)))
	b.set("latency_p99_ms", ms(time.Duration(p99)))
}

// restartProbe sets recover_s: the CPU time a platform replacing a
// crashed one needs to be ready, reassembly and redeploy included. A
// durable workload first writes a fixed history and recovers it; a
// journal-off workload has nothing to recover, so its figure is the
// reassembly alone. It is CPU time for the reason setup_s is: the
// cheapest of a few recoveries, or the median of the many reassemblies
// that fit in restartTime. It returns the durable workload's
// crashed history.
func (b *bench) restartProbe() (string, error) {
	// The timed fleet's heap is garbage now; collect it so that no trial
	// pays for it. Journal-off restarts take about a millisecond, so they
	// repeat for a while, to sample more than a moment of the machine.
	// Each starts from a collected heap, and each fleet is shut down in
	// order, so that no trial is charged for the last one's goroutines.
	runtime.GC()
	if !b.s.durable {
		var wall, cpu []float64
		for start := time.Now(); time.Since(start) < restartTime; {
			runtime.GC()
			t0, c0 := time.Now(), processCPU()
			f, _, err := assemble(b.s, nil, "")
			if err != nil {
				return "", err
			}
			cpu = append(cpu, (processCPU() - c0).Seconds())
			wall = append(wall, time.Since(t0).Seconds())
			f.close()
		}
		fmt.Printf("restart: %d trials, median wall seconds %.4g, cpu seconds min %.4g median %.4g\n",
			len(cpu), median(wall), slices.Min(cpu), median(cpu))
		b.set("recover_s", median(cpu))
		return "", nil
	}
	history := filepath.Join(b.scratch, "history")
	f, _, err := assemble(b.s, nil, history)
	if err != nil {
		return "", err
	}
	b.count("history", runPhase(f.comp, b.pools, b.s.roundLen(), 0, historyExecs/clients/b.s.roundLen(), "h", nil))
	f.crash()
	size, err := dirBytes(history)
	if err != nil {
		return "", err
	}
	var wall, cpu, rec []float64
	for k := 0; k < recoveries; k++ {
		w, c, r, err := recoveryTrial(b.s, history, filepath.Join(b.scratch, fmt.Sprintf("recover-%d", k)), historyExecs)
		if err != nil {
			b.fail("%v", err)
			continue
		}
		wall = append(wall, w.Seconds())
		cpu = append(cpu, c.Seconds())
		rec = append(rec, r.Seconds())
	}
	if len(cpu) == 0 {
		return "", errors.New("every recovery trial failed")
	}
	fmt.Printf("recovery: history=%d executions, %d bytes on disk, wall seconds %s, cpu seconds %s\n",
		historyExecs, size, floats(wall), floats(cpu))
	b.set("recover_s", slices.Min(cpu))
	b.set("engine.recover_s", slices.Min(rec))
	b.set("journal.disk_bytes_per_exec", float64(size)/historyExecs)
	return history, nil
}

// journalProbe times the journal's read and write paths on the history
// the restart probe wrote. Without a journal its metrics are zero.
func (b *bench) journalProbe() error {
	names := []string{"journal.open_s", "journal.replay_records_per_s", "journal.append_us_per_record"}
	if !b.s.durable {
		for _, k := range append(names, "engine.recover_s", "journal.disk_bytes_per_exec") {
			b.set(k, 0)
		}
		return nil
	}
	history, err := b.restartProbe()
	if err != nil {
		return err
	}
	var open, rate, app []float64
	for k := 0; k < journalReplays; k++ {
		jt, err := journalReplay(history, b.scratch)
		if err != nil {
			return err
		}
		open = append(open, jt.openS)
		rate = append(rate, jt.replayRecPerS)
		app = append(app, jt.appendUsPerRecord)
	}
	for i, xs := range [][]float64{open, rate, app} {
		b.set(names[i], median(xs))
	}
	return nil
}

// perLayer is the untraced half followed by the traced half.
func (b *bench) perLayer(d time.Duration) error {
	f, err := b.setup()
	if err != nil {
		return err
	}
	half := d / 2
	b.burn(f, "b")

	// Untraced half: runtime, transport and journal counters.
	stop := make(chan struct{})
	var depthMax int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, ns := range f.p.Network().Stats().Nodes {
					depthMax = max(depthMax, ns.RecvQueueDepth)
				}
			}
		}
	}()
	c0, ns0, js0 := readCounters(), f.p.Network().Stats().Total(), f.p.DurabilityStats().Journal
	r := runPhase(f.comp, b.pools, b.s.roundLen(), half, 0, "t", nil)
	c1, ns1, js1 := readCounters(), f.p.Network().Stats().Total(), f.p.DurabilityStats().Journal
	close(stop)
	wg.Wait()
	f.close()
	b.count("untraced phase", r)
	if r.completed == 0 {
		return errors.New("no execution completed")
	}
	n := float64(r.completed)
	untracedRate := n / r.wall.Seconds()
	b.latencies(r, half)
	// The runtime updates its CPU classes at each collection; a phase
	// without one has no estimate, and its GC share is 0.
	gcShare := 0.0
	if cpu := c1.totalCPU - c0.totalCPU; cpu > 0 {
		gcShare = (c1.gcCPU - c0.gcCPU) / cpu
	}
	b.set("runtime.gc_cpu_share", gcShare)
	b.set("runtime.gc_cycles_per_kexec", float64(c1.gcCycles-c0.gcCycles)/n*1000)
	b.set("runtime.sched_latency_p50_us", histPercentile(c0.sched, c1.sched, 0.50)*1e6)
	b.set("runtime.sched_latency_p99_us", histPercentile(c0.sched, c1.sched, 0.99)*1e6)
	b.set("runtime.mutex_wait_us_per_exec", (c1.mutexSec-c0.mutexSec)*1e6/n)
	b.set("transport.msgs_per_exec", float64(ns1.MsgsOut-ns0.MsgsOut)/n)
	b.set("transport.frames_per_exec", float64(ns1.FramesOut-ns0.FramesOut)/n)
	b.set("transport.bytes_per_exec", float64(ns1.BytesOut-ns0.BytesOut)/n)
	b.set("transport.frames_merged_per_exec", float64(ns1.FramesMerged-ns0.FramesMerged)/n)
	b.set("transport.send_blocked_per_exec", float64(ns1.SendBlocked-ns0.SendBlocked)/n)
	b.set("transport.recv_queue_depth_max", float64(depthMax))
	b.set("journal.appends_per_exec", float64(js1.Appends-js0.Appends)/n)
	b.set("journal.bytes_per_exec", float64(js1.Bytes-js0.Bytes)/n)
	b.set("journal.syncs_per_exec", float64(js1.Syncs-js0.Syncs)/n)

	// Traced half.
	sampled := map[string]bool{}
	for c := 0; c < clients; c++ {
		for k := 0; k < sampleExecs; k++ {
			sampled[fmt.Sprintf("x%d-%d", c, k)] = true
		}
	}
	tr := newTracer(func(inst string) bool { return sampled[inst] })
	dir := ""
	if b.s.durable {
		dir = filepath.Join(b.scratch, "journal-traced")
	}
	tf, _, err := assemble(b.s, tr, dir)
	if err != nil {
		return err
	}
	b.burn(tf, "bt")
	tr.recording.Store(true)
	rt := runPhase(tf.comp, b.pools, b.s.roundLen(), half, 0, "x", tr)
	time.Sleep(50 * time.Millisecond) // spans that end after their execution returned
	tf.close()
	b.count("traced phase", rt)
	spans, frames := tr.stop()
	rep := analyze(spans, rt.insts)
	if rep.execs == 0 {
		return errors.New("no traced execution completed")
	}
	tracedRate := float64(rt.completed) / rt.wall.Seconds()
	b.set("trace.overhead_ratio", tracedRate/untracedRate)
	b.traceMetrics(rep)

	nSampled := 0
	for inst := range sampled {
		if rt.insts[inst] {
			nSampled++
		}
	}
	enc, dec, allocs, err := codecReplay(frames, nSampled, 200*time.Millisecond)
	if err != nil {
		return err
	}
	b.set("message.encode_us_per_exec", enc)
	b.set("message.decode_us_per_exec", dec)
	b.set("message.decode_allocs_per_exec", allocs)

	if err := os.MkdirAll(filepath.Join(b.out, "spans"), 0o755); err != nil {
		return err
	}
	dump := filepath.Join(b.out, "spans", b.s.name+".tsv")
	if err := dumpSpans(spans, dump); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), dump)

	if err := b.journalProbe(); err != nil {
		return err
	}
	b.set("failed_ratio", float64(b.res.Failed)/float64(max(b.res.Attempted, 1)))
	return nil
}

// traceMetrics reports the traced breakdown and prints the latency
// reconciliation: the blocking-path terms, which sum to the mean traced
// latency, next to the scheduler and GC figures that name the residual.
func (b *bench) traceMetrics(r traceReport) {
	b.set("engine.wrapper.start_us_per_exec", r.wrapperStartUs)
	b.set("engine.wrapper.handle_self_us_per_exec", r.wrapperHandleSelfUs)
	b.set("engine.wrapper.return_wait_us_per_exec", r.wrapperReturnWaitUs)
	b.set("engine.host.handles_per_exec", r.hostHandlesPerExec)
	b.set("engine.host.handle_self_us_per_exec", r.hostHandleSelfUs)
	b.set("transport.send_us_per_exec", r.sendUs)
	b.set("transport.transit_us_per_hop", r.transitUsPerHop)
	b.set("service.invokes_per_exec", r.invokesPerExec)
	b.set("service.invoke_us_per_exec", r.invokeUs)
	b.set("community.delegate_self_us_per_call", r.delegateSelfUsPerCall)
	b.set("community.member_attempts_per_call", r.memberAttemptsPerCall)
	b.set("trace.attributed_us_per_exec", r.attributedUs())
	b.set("trace.unattributed_us_per_exec", r.termsUs[termUnattributed])

	fmt.Printf("reconciliation: %d traced executions (%d without a complete path), mean latency %.3fus\n",
		r.execs, r.incomplete, r.meanLatUs)
	var sum float64
	for _, t := range termOrder {
		sum += r.termsUs[t]
		fmt.Printf("  %-28s %9.3fus\n", t, r.termsUs[t])
	}
	fmt.Printf("  %-28s %9.3fus (mean latency %.3fus)\n", "sum", sum, r.meanLatUs)
	fmt.Printf("  residual named by: runtime.sched_latency_p50_us=%.3g runtime.sched_latency_p99_us=%.3g runtime.gc_cpu_share=%.3g runtime.gc_cycles_per_kexec=%.3g\n",
		b.res.Metrics["runtime.sched_latency_p50_us"].Value, b.res.Metrics["runtime.sched_latency_p99_us"].Value,
		b.res.Metrics["runtime.gc_cpu_share"].Value, b.res.Metrics["runtime.gc_cycles_per_kexec"].Value)
	if err := r.check(); err != nil {
		b.fail("%v", err)
	}
}
