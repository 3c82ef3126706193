package main

import (
	"fmt"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the platform sees, reported by the
// untraced run (--trace 0): costs in CPU time, allocations and memory,
// which other tenants of a shared machine move little.
var endToEnd = []metricDef{
	{"cpu_us_per_exec", "us"},
	{"allocs_per_exec", "count"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"recover_s", "s"},
}

// perLayer are the traced run's metrics (--trace 1). A layer the
// workload does not exercise reports 0. Throughput and latency (of the
// traced run's untraced half) are here rather than among the end-to-end
// metrics because no bound the benchmark may set covers their
// run-to-run spread on a shared two-CPU machine, where other tenants
// take the CPUs away for minutes at a time; failed_ratio is here
// because it is 0.
var perLayer = []metricDef{
	{"execs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"engine.wrapper.start_us_per_exec", "us"},
	{"engine.wrapper.handle_self_us_per_exec", "us"},
	{"engine.wrapper.return_wait_us_per_exec", "us"},
	{"engine.host.handles_per_exec", "count"},
	{"engine.host.handle_self_us_per_exec", "us"},
	{"engine.recover_s", "s"},
	{"transport.send_us_per_exec", "us"},
	{"transport.transit_us_per_hop", "us"},
	{"transport.msgs_per_exec", "count"},
	{"transport.frames_per_exec", "count"},
	{"transport.bytes_per_exec", "bytes"},
	{"transport.frames_merged_per_exec", "count"},
	{"transport.send_blocked_per_exec", "count"},
	{"transport.recv_queue_depth_max", "count"},
	{"message.encode_us_per_exec", "us"},
	{"message.decode_us_per_exec", "us"},
	{"message.decode_allocs_per_exec", "count"},
	{"service.invokes_per_exec", "count"},
	{"service.invoke_us_per_exec", "us"},
	{"community.delegate_self_us_per_call", "us"},
	{"community.member_attempts_per_call", "count"},
	{"journal.appends_per_exec", "count"},
	{"journal.bytes_per_exec", "bytes"},
	{"journal.syncs_per_exec", "count"},
	{"journal.append_us_per_record", "us"},
	{"journal.disk_bytes_per_exec", "bytes"},
	{"journal.open_s", "s"},
	{"journal.replay_records_per_s", "1/s"},
	{"core.add_hosts_ms", "ms"},
	{"core.deploy_ms", "ms"},
	{"core.first_exec_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_kexec", "count"},
	{"runtime.sched_latency_p50_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.mutex_wait_us_per_exec", "us"},
	{"trace.attributed_us_per_exec", "us"},
	{"trace.unattributed_us_per_exec", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"failed_ratio", "ratio"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// selectMetrics keeps exactly the metrics of defs from got, and fails
// when one of them was not measured.
func selectMetrics(got map[string]metric, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}
