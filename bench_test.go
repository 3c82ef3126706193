// Package selfserv_test is the experiment harness for E1–E12: each
// Benchmark* regenerates one table of the paper's demo and claims, or of
// the platform layers built around them (concurrency, availability,
// scale-out, live redeploy, durability). The BENCH_*.json files record
// the measured series; the Makefile's bench-* targets run the short CI
// smoke versions, several of which fail outright when an invariant
// breaks.
//
// Run everything:
//
//	go test -bench=. -benchmem -run '^$' .
//
// Or one experiment:
//
//	go test -bench=BenchmarkE3 -run '^$' .
package selfserv_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/community"
	"selfserv/internal/controlplane"
	"selfserv/internal/core"
	"selfserv/internal/deployer"
	"selfserv/internal/discovery"
	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/limits"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/uddi"
	"selfserv/internal/workload"
)

// deployP2P deploys sc on a fresh platform (one host per service) and
// returns the composite plus the platform.
func deployP2P(b *testing.B, sc *statechart.Statechart, register func(p *core.Platform)) (*core.Platform, *core.Composite) {
	b.Helper()
	p := core.New(core.Options{Funcs: workload.TravelGuards()})
	b.Cleanup(func() { p.Close() })
	register(p)
	return p, deployOn(b, p, sc)
}

// deployOn deploys sc on p with one host per service, each serving the
// provider registered under the service's name.
func deployOn(b *testing.B, p *core.Platform, sc *statechart.Statechart) *core.Composite {
	b.Helper()
	for i, svc := range sc.Services() {
		h, err := p.AddHost(fmt.Sprintf("host-%d-%s", i, svc))
		if err != nil {
			b.Fatal(err)
		}
		prov, err := p.Registry().Lookup(svc)
		if err != nil {
			b.Fatal(err)
		}
		p.RegisterService(h, prov)
	}
	comp, err := p.Deploy(sc)
	if err != nil {
		b.Fatal(err)
	}
	return comp
}

func registerTravel(b *testing.B) func(*core.Platform) {
	return func(p *core.Platform) {
		if _, err := workload.RegisterTravelProviders(p.Registry(), service.SimulatedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// shapeWorkload returns Chain(k) or Parallel(k) with the matching
// provider registration.
func shapeWorkload(shape string, k int) (*statechart.Statechart, func(*core.Platform)) {
	if shape == "chain" {
		return workload.Chain(k), func(p *core.Platform) {
			workload.RegisterChainProviders(p.Registry(), k, service.SimulatedOptions{})
		}
	}
	return workload.Parallel(k), func(p *core.Platform) {
		workload.RegisterParallelProviders(p.Registry(), k, service.SimulatedOptions{})
	}
}

// --- E1: the travel scenario (Fig 2) ---------------------------------

// BenchmarkE1TravelScenario measures end-to-end latency of the paper's
// demo composite for each of its control-flow variants: domestic/near
// (DFB, AS, AB), domestic/far (DFB, AS, AB, CR), international/far (ITA,
// AS, AB, CR), international/near (ITA, AS, AB). Each run fails unless
// the guards rented a car exactly on the "far" variants.
func BenchmarkE1TravelScenario(b *testing.B) {
	variants := []struct {
		name string
		dest string
		car  bool
	}{
		{"domestic-near/sydney", "sydney", false},
		{"domestic-far/melbourne", "melbourne", true},
		{"international-far/tokyo", "tokyo", true},
		{"international-near/paris", "paris", false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			_, comp := deployP2P(b, workload.Travel(), registerTravel(b))
			req := workload.TravelRequest("bench", v.dest, true)
			ctx := context.Background()
			var out map[string]string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = comp.Execute(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if car := out["carRef"] != ""; car != v.car {
				b.Fatalf("E1 %s: car rented = %v, want %v", v.dest, car, v.car)
			}
		})
	}
}

// --- E2: discovery engine throughput (Fig 1 architecture) ------------

// BenchmarkE2DiscoveryThroughput measures UDDI publish and inquiry rates
// through the full SOAP/HTTP stack, for growing registry sizes.
func BenchmarkE2DiscoveryThroughput(b *testing.B) {
	for _, preload := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("find/registry-size-%d", preload), func(b *testing.B) {
			reg := uddi.NewRegistry()
			ts := httptest.NewServer(uddi.Serve(reg, nil))
			defer ts.Close()
			c := &uddi.Client{URL: ts.URL + "/uddi"}
			biz, err := c.SaveBusiness(uddi.BusinessEntity{Name: "LoadCo"})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < preload; i++ {
				if _, err := c.SaveService(uddi.BusinessService{
					BusinessKey: biz.BusinessKey,
					Name:        fmt.Sprintf("svc-%05d", i),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, err := c.FindService(uddi.ServiceQuery{NamePattern: "svc-00001", Qualifier: uddi.MatchPrefix})
				if err != nil {
					b.Fatal(err)
				}
				_ = hits
			}
		})
	}
	b.Run("publish", func(b *testing.B) {
		reg := uddi.NewRegistry()
		ts := httptest.NewServer(uddi.Serve(reg, nil))
		defer ts.Close()
		c := &uddi.Client{URL: ts.URL + "/uddi"}
		biz, err := c.SaveBusiness(uddi.BusinessEntity{Name: "LoadCo"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc, err := c.SaveService(uddi.BusinessService{
				BusinessKey: biz.BusinessKey,
				Name:        fmt.Sprintf("bench-%08d", i),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.SaveBinding(uddi.BindingTemplate{
				ServiceKey: svc.ServiceKey, AccessPoint: "http://x/soap",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E3: P2P vs centralized orchestration ------------------------------

// BenchmarkE3P2PvsCentral compares end-to-end latency of the peer-to-peer
// engine against the hub baseline on chains and parallel fans of growing
// width. Per-node load is E7.
func BenchmarkE3P2PvsCentral(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16, 32} {
		for _, shape := range []string{"chain", "parallel"} {
			sc, register := shapeWorkload(shape, k)
			b.Run(fmt.Sprintf("%s-%d/p2p", shape, k), func(b *testing.B) {
				p, comp := deployP2P(b, sc, register)
				ctx := context.Background()
				in := map[string]string{"x": "0"}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := comp.Execute(ctx, in); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				total := p.Network().Stats().Total()
				b.ReportMetric(float64(total.MsgsOut)/float64(b.N), "msgs/exec")
				b.ReportMetric(float64(total.FramesOut)/float64(b.N), "frames/exec")
			})
			b.Run(fmt.Sprintf("%s-%d/central", shape, k), func(b *testing.B) {
				_, comp := deployP2P(b, sc, register)
				central, err := comp.NewCentralBaseline(fmt.Sprintf("central-%s-%d", shape, k))
				if err != nil {
					b.Fatal(err)
				}
				defer central.Close()
				ctx := context.Background()
				in := map[string]string{"x": "0"}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := central.Execute(ctx, in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE3ParallelFanColocated measures the Network v2 coalescing win
// in isolation: Parallel(k) with every branch service on ONE host, so the
// wrapper's start fan is k notifications to a single destination. With
// per-round outbox coalescing the whole fan is one wire frame
// (frames/exec ≈ rounds, not messages); before v2 it was k frames.
func BenchmarkE3ParallelFanColocated(b *testing.B) {
	for _, k := range []int{8, 32} {
		k := k
		b.Run(fmt.Sprintf("parallel-%d/p2p-one-host", k), func(b *testing.B) {
			p := core.New(core.Options{Funcs: workload.TravelGuards()})
			b.Cleanup(func() { p.Close() })
			workload.RegisterParallelProviders(p.Registry(), k, service.SimulatedOptions{})
			h, err := p.AddHost("colo-host")
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= k; i++ {
				prov, err := p.Registry().Lookup(fmt.Sprintf("svc%d", i))
				if err != nil {
					b.Fatal(err)
				}
				p.RegisterService(h, prov)
			}
			comp, err := p.Deploy(workload.Parallel(k))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			in := map[string]string{"x": "0"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comp.Execute(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			wrapper := p.Network().Stats().Nodes[comp.Wrapper().Addr()]
			b.ReportMetric(float64(wrapper.MsgsOut)/float64(b.N), "fan-msgs/exec")
			b.ReportMetric(float64(wrapper.FramesOut)/float64(b.N), "fan-frames/exec")
		})
	}
}

// BenchmarkE3PipelinedChainTCP measures CROSS-ROUND batching (the
// FlowOptions.FlushDelay knob) on a pipelined workload over real TCP:
// Chain(8) with one host per service and many executions in flight, so
// successive firing rounds of DIFFERENT instances address the same
// destination connections back-to-back. With FlushDelay 0 every round
// is its own wire write (the PR 3 behavior); with the Nagle delay
// enabled the per-destination writers fold the pipeline's bursts into
// merged frames — wire-frames/exec drops while ns/op absorbs at most
// one delay per hop. The sweep {0, 200µs, 1ms} is the latency/
// throughput trade recorded in BENCH_crossround.json.
func BenchmarkE3PipelinedChainTCP(b *testing.B) {
	const k = 8
	for _, delay := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond} {
		delay := delay
		b.Run(fmt.Sprintf("chain-%d/flush-%s", k, delay), func(b *testing.B) {
			net := transport.NewTCP(transport.FlowOptions{FlushDelay: delay})
			p := core.New(core.Options{Network: net})
			// The platform doesn't own a caller-supplied network; close it
			// too or each sub-run leaks listeners and writer goroutines.
			b.Cleanup(func() { p.Close(); net.Close() })
			workload.RegisterChainProviders(p.Registry(), k, service.SimulatedOptions{})
			sc := workload.Chain(k)
			for _, svc := range sc.Services() {
				h, err := p.AddHost("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				prov, err := p.Registry().Lookup(svc)
				if err != nil {
					b.Fatal(err)
				}
				p.RegisterService(h, prov)
			}
			comp, err := p.Deploy(sc)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			in := map[string]string{"x": "0"}
			b.SetParallelism(4) // keep the pipeline full: 4×GOMAXPROCS instances in flight
			var execErr atomic.Pointer[error]
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := comp.Execute(ctx, in); err != nil {
						// FailNow must not run on a RunParallel worker; park
						// the first error for the benchmark goroutine.
						execErr.CompareAndSwap(nil, &err)
						return
					}
				}
			})
			b.StopTimer()
			if errp := execErr.Load(); errp != nil {
				b.Fatal(*errp)
			}
			total := net.Stats().Total()
			// FramesOut counts frames ACCEPTED (one per Send/SendBatch);
			// FramesMerged counts those folded into another frame's write —
			// the difference is what actually hit the wire.
			b.ReportMetric(float64(total.FramesOut)/float64(b.N), "frames/exec")
			b.ReportMetric(float64(total.FramesOut-total.FramesMerged)/float64(b.N), "wire-frames/exec")
			b.ReportMetric(total.MergedMsgsPerFrame(), "merged-msgs/frame")
		})
	}
}

// --- E8: concurrent-instance scaling -----------------------------------

// BenchmarkE8ConcurrentInstances measures how the engine scales with the
// number of in-flight executions of ONE composite — the regime the
// paper's "heavy traffic" pitch lives in, where a central hub melts and
// peer-to-peer coordinators are supposed to keep going. M workers each
// run executions back-to-back (an open pipe of M concurrent instances
// per wrapper and per coordinator), sharing the b.N execution budget.
// Reported per cell: p50 per-execution latency and aggregate execs/sec.
// The sweep M ∈ {1, 8, 64, 256} over Parallel(8) and Chain(8) is the
// series recorded in BENCH_concurrency.json; contention inside the
// engine (instance-map locks, receive dispatch) shows up here and
// nowhere else in the harness.
func BenchmarkE8ConcurrentInstances(b *testing.B) {
	const k = 8
	for _, shape := range []string{"parallel", "chain"} {
		sc, register := shapeWorkload(shape, k)
		for _, m := range []int{1, 8, 64, 256} {
			b.Run(fmt.Sprintf("%s-%d/inflight-%d", shape, k, m), func(b *testing.B) {
				_, comp := deployP2P(b, sc, register)
				ctx := context.Background()
				in := map[string]string{"x": "0"}
				if _, err := comp.Execute(ctx, in); err != nil {
					b.Fatal(err) // warm the directory and conn caches
				}
				var next atomic.Int64
				var execErr atomic.Pointer[error]
				lat := make([][]time.Duration, m)
				var wg sync.WaitGroup
				b.ResetTimer()
				start := time.Now()
				for w := 0; w < m; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							t0 := time.Now()
							if _, err := comp.Execute(ctx, in); err != nil {
								// FailNow must not run off the benchmark
								// goroutine; park the first error instead.
								execErr.CompareAndSwap(nil, &err)
								return
							}
							lat[w] = append(lat[w], time.Since(t0))
						}
					}(w)
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				if errp := execErr.Load(); errp != nil {
					b.Fatal(*errp)
				}
				var all []time.Duration
				for _, ls := range lat {
					all = append(all, ls...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				if len(all) > 0 {
					// p50 AND p95: under the pre-laned engine the median
					// looked fine while the tail starved (unfair
					// goroutine-per-frame scheduling); the spread between
					// the two is the fairness observable.
					b.ReportMetric(float64(all[len(all)/2].Microseconds()), "p50-µs")
					b.ReportMetric(float64(all[len(all)*95/100].Microseconds()), "p95-µs")
				}
				b.ReportMetric(float64(len(all))/elapsed.Seconds(), "execs/sec")
			})
		}
	}
}

// --- E4: community delegation policies --------------------------------

// BenchmarkE4CommunityPolicies measures delegation under heterogeneous
// members (fast, slow, flaky, pricey) for each policy. ns/op is the mean
// invocation latency; failrate is the failure fraction and <brand>-share
// the fraction of delegations each member received.
func BenchmarkE4CommunityPolicies(b *testing.B) {
	for _, policyName := range []string{"random", "round-robin", "least-loaded", "qos", "cheapest"} {
		policyName := policyName
		b.Run(policyName, func(b *testing.B) {
			policy, err := community.PolicyByName(policyName, 11)
			if err != nil {
				b.Fatal(err)
			}
			comm := community.New("AccommodationBooking", community.Options{Policy: policy})
			members := []struct {
				brand    string
				latency  time.Duration
				failRate float64
				cost     float64
			}{
				{"Fast", 50 * time.Microsecond, 0, 3},
				{"Slow", 2 * time.Millisecond, 0, 2},
				{"Flaky", 100 * time.Microsecond, 0.3, 1},
				{"Steady", 300 * time.Microsecond, 0, 4},
			}
			for i, m := range members {
				if err := comm.Join(&community.Member{
					Provider: service.NewAccommodationBooking(m.brand, service.SimulatedOptions{
						BaseLatency: m.latency, FailRate: m.failRate, Seed: int64(i + 1),
					}),
					Cost: m.cost,
				}); err != nil {
					b.Fatal(err)
				}
			}
			req := service.Request{
				Service: "AccommodationBooking", Operation: "book",
				Params: map[string]string{"customer": "bench", "dest": "sydney"},
			}
			ctx := context.Background()
			failures := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comm.Invoke(ctx, req); err != nil {
					failures++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(failures)/float64(b.N), "failrate")
			for _, m := range members {
				b.ReportMetric(float64(comm.History().Snapshot(m.brand).Executions)/float64(b.N), m.brand+"-share")
			}
		})
	}
}

// --- E5: routing-table generation (deployer) ---------------------------

// BenchmarkE5RoutingTableGen measures the deployer's static compilation
// cost against statechart size and nesting depth, supporting the paper's
// claim that coordinators need no runtime scheduling because the analysis
// is a cheap precomputation.
func BenchmarkE5RoutingTableGen(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		for _, depth := range []int{1, 3} {
			sc := workload.RandomChart(workload.RandomOptions{
				States: n, MaxDepth: depth, BranchProb: 0.25, ParallelProb: 0.2, Seed: 1234,
			})
			b.Run(fmt.Sprintf("states-%d/depth-%d", n, depth), func(b *testing.B) {
				b.ReportAllocs()
				var plan *routing.Plan
				for i := 0; i < b.N; i++ {
					var err error
					if plan, err = routing.Generate(sc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(sc.BasicStates())), "basicstates")
				b.ReportMetric(float64(len(plan.Tables)), "tables")
			})
		}
	}
}

// --- E6: locate and execute (Fig 3) ------------------------------------

// BenchmarkE6LocateAndExecute measures the end-user flow step by step:
// locate (search the UDDI registry and resolve the WSDL binding), invoke
// (the SOAP call against an already located service), and both together.
func BenchmarkE6LocateAndExecute(b *testing.B) {
	reg := uddi.NewRegistry()
	mux := uddi.Serve(reg, nil)
	dfb := service.NewDomesticFlightBooking(service.SimulatedOptions{})
	mux.Handle("/soap/dfb", discovery.ServiceEndpoint(dfb))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	wsdlH, err := discovery.WSDLEndpoint(dfb, ts.URL+"/soap/dfb")
	if err != nil {
		b.Fatal(err)
	}
	mux.Handle("/wsdl/dfb", wsdlH)

	eng := discovery.NewEngine(ts.URL + "/uddi")
	if _, err := eng.Register(discovery.Publication{
		ProviderName: "QF Airlines",
		ServiceName:  "DomesticFlightBooking",
		Endpoint:     ts.URL + "/soap/dfb",
		WSDLURL:      ts.URL + "/wsdl/dfb",
	}); err != nil {
		b.Fatal(err)
	}
	params := map[string]string{"customer": "bench", "dest": "sydney"}
	ctx := context.Background()
	invoke := func(b *testing.B, loc *discovery.Located) {
		out, err := eng.Invoke(ctx, loc, "book", params)
		if err != nil {
			b.Fatal(err)
		}
		if out["ref"] == "" {
			b.Fatal("no ref")
		}
	}
	locate := func(b *testing.B) *discovery.Located {
		loc, err := eng.LocateOne("DomesticFlightBooking")
		if err != nil {
			b.Fatal(err)
		}
		return loc
	}
	b.Run("locate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			locate(b)
		}
	})
	b.Run("invoke", func(b *testing.B) {
		loc := locate(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invoke(b, loc)
		}
	})
	b.Run("locate+invoke", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invoke(b, locate(b))
		}
	})
}

// --- E7: per-node coordination load ------------------------------------

// BenchmarkE7NodeLoad reports messages handled per execution by (a) the
// busiest coordinator node and the wrapper under P2P and (b) the hub
// under centralized orchestration, on Parallel(k). The paper's
// availability argument is exactly this asymmetry.
func BenchmarkE7NodeLoad(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		sc, register := shapeWorkload("parallel", k)
		b.Run(fmt.Sprintf("parallel-%d/p2p", k), func(b *testing.B) {
			p, comp := deployP2P(b, sc, register)
			ctx := context.Background()
			in := map[string]string{"x": "0"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comp.Execute(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stats := p.Network().Stats()
			var worstCoord int64
			for addr, ns := range stats.Nodes {
				if strings.HasPrefix(addr, "host-") {
					if t := ns.MsgsIn + ns.MsgsOut; t > worstCoord {
						worstCoord = t
					}
				}
			}
			b.ReportMetric(float64(worstCoord)/float64(b.N), "busiest-msgs/exec")
			wrapper := stats.Nodes[comp.Wrapper().Addr()]
			b.ReportMetric(float64(wrapper.MsgsIn+wrapper.MsgsOut)/float64(b.N), "wrapper-msgs/exec")
			total := stats.Total()
			b.ReportMetric(float64(total.FramesOut)/float64(b.N), "frames/exec")
		})
		b.Run(fmt.Sprintf("parallel-%d/central", k), func(b *testing.B) {
			p, comp := deployP2P(b, sc, register)
			central, err := comp.NewCentralBaseline(fmt.Sprintf("central-e7-%d", k))
			if err != nil {
				b.Fatal(err)
			}
			defer central.Close()
			ctx := context.Background()
			in := map[string]string{"x": "0"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := central.Execute(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			hub := p.Network().Stats().Nodes[central.Addr()]
			b.ReportMetric(float64(hub.MsgsIn+hub.MsgsOut)/float64(b.N), "hub-msgs/exec")
		})
	}
}

// --- E9: availability under churn --------------------------------------

// chaosChain deploys Chain(8) whose fourth state is served by a
// two-member community — a primary the chaos scenario abuses and a
// steady backup — over an in-memory network with the given message drop
// rate. churn=true arms the availability layer (failover, per-member
// breakers, tenant limits); churn=false is the paper's single-delegation
// baseline.
func chaosChain(b *testing.B, dropRate, primaryFail float64, churn bool) (*core.Composite, *service.Simulated) {
	const k = 8
	net := transport.NewInMem(transport.InMemOptions{DropRate: dropRate, Seed: 7})
	opts := core.Options{Network: net}
	if churn {
		opts.Limits = limits.New(limits.Options{
			PerTenant: map[string]limits.Limit{"noisy": {Rate: 20, Burst: 20}},
		})
	}
	p := core.New(opts)
	b.Cleanup(func() {
		p.Close()
		net.Close()
	})

	primary := service.NewSimulated("ChaosPrimary", service.SimulatedOptions{FailRate: primaryFail, Seed: 11}).
		Handle("run", workload.IncrementX)
	backup := service.NewSimulated("ChaosBackup", service.SimulatedOptions{}).Handle("run", workload.IncrementX)

	sc := workload.Chain(k)
	for i, svc := range sc.Services() {
		h, err := p.AddHost(fmt.Sprintf("chaos-host-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if svc == "svc4" {
			commOpts := community.Options{Policy: community.NewCheapest()}
			if churn {
				commOpts.Failover = 1
				commOpts.Breaker = &circuit.Options{
					Window: 8, Threshold: 0.5, MinSamples: 4, OpenFor: 50 * time.Millisecond,
				}
			}
			comm := community.New("svc4", commOpts)
			for _, m := range []*community.Member{
				{Provider: primary, Cost: 1}, // preferred while it behaves
				{Provider: backup, Cost: 2},
			} {
				if err := comm.Join(m); err != nil {
					b.Fatal(err)
				}
			}
			p.RegisterService(h, comm)
			continue
		}
		p.RegisterService(h, service.NewSimulated(svc, service.SimulatedOptions{}).Handle("run", workload.IncrementX))
	}
	comp, err := p.Deploy(sc)
	if err != nil {
		b.Fatal(err)
	}
	return comp, primary
}

// BenchmarkE9Availability measures completion under failure, Chain(8).
//
//   - drop-*/p2p|central: a lossy transport with no retransmission, as in
//     the paper's fire-and-forget socket exchanges. The peer-to-peer plan
//     needs about k+1 messages per execution while the hub needs 2k, so at
//     equal link loss the hub fails roughly twice as often: the
//     quantitative face of §1's availability argument.
//   - death|loss|overload/churn-*: the chaos sweep behind
//     BENCH_availability.json, with a community-backed state. The
//     preferred member dies (death), 2% message loss meets a flaky member
//     (loss), or a noisy tenant floods the platform (overload), each with
//     the churn layer off (single delegation, no breakers, no limits) and
//     on (failover + breakers + tenant limits).
//
// Reported per cell: completion rate, plus p95 latency of completed
// executions for the chaos cells. Timed-out or faulted executions count
// against completion.
func BenchmarkE9Availability(b *testing.B) {
	for _, pct := range []int{0, 1, 3, 8} {
		for _, hub := range []bool{false, true} {
			mode := "p2p"
			if hub {
				mode = "central"
			}
			b.Run(fmt.Sprintf("drop-%d%%/%s", pct, mode), func(b *testing.B) {
				e9Drop(b, float64(pct)/100, hub)
			})
		}
	}

	scenarios := []struct {
		name     string
		drop     float64 // transport message drop rate
		fail     float64 // primary member fail rate
		dead     bool    // kill the primary outright
		overload bool    // flood with a rate-limited tenant
	}{
		{name: "death", dead: true},
		{name: "loss", drop: 0.02, fail: 0.2},
		{name: "overload", fail: 0.1, overload: true},
	}
	for _, scen := range scenarios {
		for _, churn := range []bool{false, true} {
			mode := "off"
			if churn {
				mode = "on"
			}
			b.Run(fmt.Sprintf("%s/churn-%s", scen.name, mode), func(b *testing.B) {
				comp, primary := chaosChain(b, scen.drop, scen.fail, churn)
				ctx := context.Background()
				in := map[string]string{"x": "0"}
				warm, cancel := context.WithTimeout(ctx, time.Second)
				comp.Execute(warm, in) // warm the directory; may fail under chaos
				cancel()
				if scen.dead {
					primary.SetDown(true)
				}
				var stop chan struct{}
				if scen.overload {
					// Four noisy-tenant clients flooding back-to-back; with
					// churn on the limiter sheds them at wrapper admission.
					stop = make(chan struct{})
					for w := 0; w < 4; w++ {
						go func() {
							noisy := map[string]string{"x": "0", engine.TenantVar: "noisy"}
							for {
								select {
								case <-stop:
									return
								default:
								}
								c, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
								if _, err := comp.Execute(c, noisy); err != nil {
									time.Sleep(time.Millisecond) // shed/fault: back off
								}
								cancel()
							}
						}()
					}
				}
				ok := 0
				var lats []time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
					t0 := time.Now()
					if _, err := comp.Execute(c, in); err == nil {
						ok++
						lats = append(lats, time.Since(t0))
					}
					cancel()
				}
				b.StopTimer()
				if stop != nil {
					close(stop)
				}
				b.ReportMetric(float64(ok)/float64(b.N), "completion")
				if len(lats) > 0 {
					sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
					b.ReportMetric(float64(lats[len(lats)*95/100].Microseconds()), "p95-µs")
				}
			})
		}
	}
}

// e9Drop runs b.N Chain(8) executions over an in-memory network that
// drops the given fraction of messages, through the P2P wrapper or the
// central hub, and reports the completion rate.
func e9Drop(b *testing.B, drop float64, hub bool) {
	const k = 8
	net := transport.NewInMem(transport.InMemOptions{DropRate: drop, Seed: 7})
	p := core.New(core.Options{Network: net})
	b.Cleanup(func() {
		p.Close()
		net.Close()
	})
	workload.RegisterChainProviders(p.Registry(), k, service.SimulatedOptions{})
	comp := deployOn(b, p, workload.Chain(k))
	run := comp.Execute
	if hub {
		central, err := comp.NewCentralBaseline("central")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { central.Close() })
		run = central.Execute
	}
	in := map[string]string{"x": "0"}
	ok := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		if _, err := run(ctx, in); err == nil {
			ok++
		}
		cancel()
	}
	b.StopTimer()
	b.ReportMetric(float64(ok)/float64(b.N), "completion")
}

// --- E10: horizontal scale-out -----------------------------------------

// e10AddrRE extracts the admin address from hostd's startup log line.
var e10AddrRE = regexp.MustCompile(`coordination on \S+, admin on (http://\S+), services`)

// e10Daemon spawns one hostd replica hosting every Chain(4) service on
// ephemeral ports, with provider capacity capped at 2 concurrent
// invocations x 8ms, and returns its admin URL once it has announced it.
// Cleanup kills the process.
func e10Daemon(b *testing.B, bin string) string {
	b.Helper()
	cmd := exec.Command(bin,
		"-services", "inc:svc1,inc:svc2,inc:svc3,inc:svc4",
		"-latency", "8ms",
		"-svc-concurrency", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatalf("E10: start hostd: %v", err)
	}
	b.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := e10AddrRE.FindStringSubmatch(sc.Text()); m != nil {
			// Keep draining stderr so the daemon never blocks on a full pipe.
			go io.Copy(io.Discard, stderr)
			return m[1]
		}
	}
	b.Fatal("E10: hostd exited before announcing its addresses")
	return ""
}

// BenchmarkE10ScaleOut is the scale-out sweep behind BENCH_scaleout.json:
// Chain(4) deployed across R ∈ {1, 2, 4} real hostd processes, each
// hosting every service of the chain, driven by 48 workers through a
// local wrapper. One replica saturates near 250 execs/sec regardless of
// CPU, so adding replicas, not cores, is what buys throughput.
// Deterministic tenant-aware routing spreads instances over the replica
// set; each cell FAILS unless the wrapper saw exactly one message out
// and one in per execution (replica routing never costs an RPC).
// Reported per cell: execs/sec, p50/p95 latency, wrapper msgs/exec, and
// execs/sec relative to R=1 when that cell ran first.
func BenchmarkE10ScaleOut(b *testing.B) {
	bin := filepath.Join(b.TempDir(), "hostd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hostd").CombinedOutput(); err != nil {
		b.Fatalf("E10: build hostd: %v\n%s", err, out)
	}
	var base float64
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			eps := e10Cell(b, bin, replicas)
			if replicas == 1 {
				base = eps
			} else if base > 0 {
				b.ReportMetric(eps/base, "x-vs-R1")
			}
		})
	}
}

// e10Cell spawns the replicas, deploys Chain(4) onto all of them, runs
// b.N executions from a wrapper with its own TCP transport and
// directory, and returns execs/sec.
func e10Cell(b *testing.B, bin string, replicas int) float64 {
	const workers = 48
	sc := workload.Chain(4)
	var installers []*hostapi.RemoteInstaller
	for r := 0; r < replicas; r++ {
		ri, err := hostapi.NewRemoteInstaller(e10Daemon(b, bin))
		if err != nil {
			b.Fatalf("E10: admin dial: %v", err)
		}
		installers = append(installers, ri)
	}
	pl := deployer.Placement{}
	for _, svc := range sc.Services() {
		for _, ri := range installers {
			pl[svc] = append(pl[svc], ri)
		}
	}
	dep, err := deployer.Deploy(sc, pl)
	if err != nil {
		b.Fatalf("E10: deploy across %d replicas: %v", replicas, err)
	}

	wnet := transport.NewTCP()
	b.Cleanup(func() { wnet.Close() })
	wdir := engine.NewDirectory()
	for state, addrs := range dep.Hosts {
		wdir.SetReplicas(sc.Name, state, addrs)
	}
	w, err := engine.NewWrapper(wnet, "127.0.0.1:0", wdir, dep.Plan, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	peers := map[string][]string{message.WrapperID: {w.Addr()}}
	for state, addrs := range dep.Hosts {
		peers[state] = addrs
	}
	for _, ri := range installers {
		if err := ri.Client.PushReplicaDirectory(sc.Name, peers); err != nil {
			b.Fatalf("E10: push replica directory: %v", err)
		}
	}
	warm, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_, err = w.Execute(warm, map[string]string{"x": "0"})
	cancel()
	if err != nil {
		b.Fatalf("E10: warmup (R=%d): %v", replicas, err)
	}

	before := wnet.Stats().Total()
	var next atomic.Int64
	var execErr atomic.Pointer[error]
	lat := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				t0 := time.Now()
				out, err := w.Execute(ctx, map[string]string{
					"x":              "0",
					engine.TenantVar: fmt.Sprintf("tenant-%d", i%7),
				})
				cancel()
				if err == nil && out["x"] != "4" {
					err = fmt.Errorf("x = %q, want 4", out["x"])
				}
				if err != nil {
					// FailNow must not run off the benchmark goroutine;
					// park the first error instead.
					execErr.CompareAndSwap(nil, &err)
					return
				}
				lat[wi] = append(lat[wi], time.Since(t0))
			}
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if errp := execErr.Load(); errp != nil {
		b.Fatalf("E10: exec (R=%d): %v", replicas, *errp)
	}
	after := wnet.Stats().Total()

	// Routing-never-RPCs: the wrapper exchanges EXACTLY one start message
	// out and one completion message in per execution, no matter how many
	// replicas each state has. Any replica-resolution chatter shows here.
	dOut, dIn := after.MsgsOut-before.MsgsOut, after.MsgsIn-before.MsgsIn
	if dOut != int64(b.N) || dIn != int64(b.N) {
		b.Fatalf("E10 (R=%d): wrapper transport saw %d msgs out / %d in for %d execs; want exactly %d/%d — replica routing must stay RPC-free",
			replicas, dOut, dIn, b.N, b.N, b.N)
	}
	var all []time.Duration
	for _, ls := range lat {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	eps := float64(len(all)) / elapsed.Seconds()
	b.ReportMetric(eps, "execs/sec")
	b.ReportMetric(float64(all[len(all)/2].Microseconds()), "p50-µs")
	b.ReportMetric(float64(all[len(all)*95/100].Microseconds()), "p95-µs")
	b.ReportMetric(float64(dOut+dIn)/float64(b.N), "wrapper-msgs/exec")
	return eps
}

// --- E11: zero-downtime redeploy ---------------------------------------

// e11Fleet is a controlplane-managed deployment of Chain(n): one hostapi
// daemon per component service on a shared in-memory network, a control
// plane over their admin URLs, and a version-pinned wrapper per release.
type e11Fleet struct {
	net    transport.Network
	cp     *controlplane.ControlPlane
	admins []*httptest.Server
	sc     *statechart.Statechart
}

func newE11Fleet(b *testing.B, n int) *e11Fleet {
	b.Helper()
	net := transport.NewInMem(transport.InMemOptions{})
	b.Cleanup(func() { net.Close() })
	f := &e11Fleet{net: net, sc: workload.Chain(n)}
	var urls []string
	for i := 1; i <= n; i++ {
		reg := service.NewRegistry()
		reg.Register(service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{}).Handle("run", workload.IncrementX))
		dir := engine.NewDirectory()
		h, err := engine.NewHost(net, fmt.Sprintf("e11-coord-%d", i), reg, dir, engine.HostOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { h.Close() })
		admin := httptest.NewServer(hostapi.NewServer(h, dir, reg.Names))
		b.Cleanup(admin.Close)
		f.admins = append(f.admins, admin)
		urls = append(urls, admin.URL)
	}
	f.cp = controlplane.New(urls...)
	return f
}

// release rolls out the next version and returns its wrapper, seeded
// with the resolved peer routes and pinned to the release version.
func (f *e11Fleet) release(b *testing.B, wrapperAddr string) *engine.Wrapper {
	b.Helper()
	rel, err := f.cp.Prepare(f.sc)
	if err != nil {
		b.Fatal(err)
	}
	wdir := engine.NewDirectory()
	w, err := engine.NewCompiledWrapper(f.net, wrapperAddr, wdir, rel.Compiled, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	if err := f.cp.Apply(rel, w.Addr()); err != nil {
		b.Fatal(err)
	}
	for id, addrs := range rel.Peers {
		wdir.SetReplicasV(rel.Composite, rel.Version, id, addrs)
	}
	wdir.SetCurrent(rel.Composite, rel.Version)
	return w
}

// e11Report reports E11's per-cell metrics and enforces its acceptance
// criterion: zero failed executions across the run.
func e11Report(b *testing.B, failed int, lats []time.Duration) {
	b.ReportMetric(float64(failed), "failed")
	if failed > 0 {
		b.Fatalf("E11: %d failed execution(s); a live swap must not drop work", failed)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)*95/100].Microseconds()), "p95-µs")
	}
}

// BenchmarkE11Redeploy is the live-redeploy sweep behind
// BENCH_redeploy.json: Chain(8) executed back-to-back while the
// composite is redeployed underneath the driver. Cells:
//
//   - platform-swap: in-process core.Platform, a fresh plan version
//     deployed every 50 executions; the driver follows the platform's
//     current composite and retries once when an admission lands on a
//     wrapper that just started draining.
//   - controlplane-swap: a hostapi fleet managed by the control plane,
//     one mid-run rollout; the replaced wrapper drains in the
//     background while the new version serves.
//   - controlplane-down: the same fleet with every admin endpoint shut
//     down after the initial rollout — data-plane autonomy: executions
//     proceed on last-known-good with zero admin calls.
//
// Per cell: execs/sec (implicit in ns/op), p95 latency, and the failed-
// execution count, which must be ZERO everywhere — the benchmark fails
// otherwise.
func BenchmarkE11Redeploy(b *testing.B) {
	const n = 8

	b.Run("platform-swap", func(b *testing.B) {
		p := core.New(core.Options{})
		b.Cleanup(func() { p.Close() })
		sc := workload.Chain(n)
		for i, svc := range sc.Services() {
			h, err := p.AddHost(fmt.Sprintf("e11-host-%d", i))
			if err != nil {
				b.Fatal(err)
			}
			p.RegisterService(h, service.NewSimulated(svc, service.SimulatedOptions{}).Handle("run", workload.IncrementX))
		}
		comp, err := p.Deploy(sc)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		in := map[string]string{"x": "0"}
		const swapEvery = 50
		swaps, failed := 0, 0
		var lats []time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%swapEvery == 0 {
				next, err := p.Deploy(sc)
				if err != nil {
					b.Fatal(err)
				}
				comp = next
				swaps++
			}
			t0 := time.Now()
			_, err := comp.Execute(ctx, in)
			if errors.Is(err, engine.ErrDraining) {
				// A concurrent retirement raced the driver's handle; the
				// shed is loud by design — follow the swap and retry.
				if cur, ok := p.Composite(sc.Name); ok {
					comp = cur
					_, err = comp.Execute(ctx, in)
				}
			}
			if err != nil {
				failed++
				continue
			}
			lats = append(lats, time.Since(t0))
		}
		b.StopTimer()
		b.ReportMetric(float64(swaps), "swaps")
		e11Report(b, failed, lats)
	})

	b.Run("controlplane-swap", func(b *testing.B) {
		f := newE11Fleet(b, n)
		w := f.release(b, "e11-wrapper-1")
		ctx := context.Background()
		in := map[string]string{"x": "0"}
		failed := 0
		var lats []time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i == b.N/2 {
				// THE swap: v2 rolls out and takes over; v1 drains in the
				// background while v2 is already serving.
				old := w
				w = f.release(b, "e11-wrapper-2")
				go func() {
					dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
					defer cancel()
					old.Drain(dctx)
					old.Close()
				}()
			}
			t0 := time.Now()
			if _, err := w.Execute(ctx, in); err != nil {
				failed++
				continue
			}
			lats = append(lats, time.Since(t0))
		}
		b.StopTimer()
		e11Report(b, failed, lats)
	})

	b.Run("controlplane-down", func(b *testing.B) {
		f := newE11Fleet(b, n)
		w := f.release(b, "e11-wrapper-1")
		// The control plane goes dark: every admin endpoint shut down.
		for _, admin := range f.admins {
			admin.Close()
		}
		calls := f.cp.AdminCalls()
		ctx := context.Background()
		in := map[string]string{"x": "0"}
		failed := 0
		var lats []time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := w.Execute(ctx, in); err != nil {
				failed++
				continue
			}
			lats = append(lats, time.Since(t0))
		}
		b.StopTimer()
		if got := f.cp.AdminCalls(); got != calls {
			b.Fatalf("E11: executions issued %d admin calls; the control plane must never sit in the hot path", got-calls)
		}
		e11Report(b, failed, lats)
	})
}

// e12Deploy adds one host to p serving every Chain(n) service behind
// the idempotency layer and deploys the chain on it.
func e12Deploy(b *testing.B, p *core.Platform, host string, n int) *core.Composite {
	b.Helper()
	if err := p.DurabilityError(); err != nil {
		b.Fatal(err)
	}
	h, err := p.AddHost(host)
	if err != nil {
		b.Fatal(err)
	}
	sc := workload.Chain(n)
	for _, svc := range sc.Services() {
		s := service.NewSimulated(svc, service.SimulatedOptions{}).Handle("run", workload.IncrementX)
		p.RegisterService(h, service.NewIdempotent(s, 0))
	}
	comp, err := p.Deploy(sc)
	if err != nil {
		b.Fatal(err)
	}
	return comp
}

// e12Chain deploys Chain(n) on a single-host platform with the given
// options and runs b.N sequential executions, reporting the journal's
// append and fsync cost per execution. The journal-on and journal-off
// cells of E12 differ only in opts.Durability.
func e12Chain(b *testing.B, n int, opts core.Options) {
	p := core.New(opts)
	b.Cleanup(func() { p.Close() })
	comp := e12Deploy(b, p, "e12-host", n)
	ctx := context.Background()
	in := map[string]string{"x": "0"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Execute(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := p.DurabilityStats().Journal
	b.ReportMetric(float64(st.Appends)/float64(b.N), "appends/op")
	b.ReportMetric(float64(st.Syncs)/float64(b.N), "syncs/op")
}

// e12JoinCycle is one two-phase AND-join drive in the exact shape the
// engine's passivation contract test pins (passivate_test.go): 40
// instance IDs pigeonhole over the 32-way striped table, so at cap 1 at
// least 8 half-armed joins passivate to disk in phase one and MUST
// rehydrate when phase two completes the clause. Returns the phase-two
// wall time and the host's rehydration count.
func e12JoinCycle(b *testing.B, cap int) (time.Duration, uint64) {
	b.Helper()
	const instances = 40
	net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	defer net.Close()
	fired := make(chan struct{}, instances)
	reg := service.NewRegistry()
	s := service.NewSimulated("SvcJoin", service.SimulatedOptions{})
	s.Handle("run", func(context.Context, map[string]string) (map[string]string, error) {
		fired <- struct{}{}
		return map[string]string{}, nil
	})
	reg.Register(s)
	j, err := journal.Open(journal.Options{Dir: b.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "e12-pass-host", reg, dir, engine.HostOptions{
		MaxInstancesPerState: cap,
		Journal:              j,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	err = h.Install("C", &routing.Table{
		State:     "join",
		Service:   "SvcJoin",
		Operation: "run",
		Inputs: []statechart.Binding{
			{Param: "x", Var: "x"},
			{Param: "y", Var: "y"},
		},
		Preconditions: []routing.Clause{
			{Sources: []string{"s1", "s2"}},
		},
		Postprocessings: []routing.Target{{To: message.WrapperID}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Listen("e12-pass-sink", func(context.Context, *message.Message) {}); err != nil {
		b.Fatal(err)
	}
	dir.Set("C", message.WrapperID, "e12-pass-sink")
	notify := func(instance, from string, vars map[string]string) {
		err := net.Send(context.Background(), "e12-pass-host", &message.Message{
			Type: message.TypeNotify, Composite: "C", Instance: instance,
			From: from, To: "join", Vars: vars,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Phase 1: half-arm every join; the synchronous network makes each
	// cap-hit passivation complete before the next Send returns.
	for k := 1; k <= instances; k++ {
		notify(fmt.Sprintf("i%d", k), "s1", map[string]string{"x": fmt.Sprint(k)})
	}
	// Phase 2 (timed): complete the clause; passivated instances go
	// through the journal's passive index on this path.
	t0 := time.Now()
	for k := 1; k <= instances; k++ {
		notify(fmt.Sprintf("i%d", k), "s2", map[string]string{"y": fmt.Sprint(2 * k)})
	}
	for got := 0; got < instances; got++ {
		<-fired
	}
	return time.Since(t0), h.Rehydrated()
}

// e12BuildJournal runs execs Chain(chain) executions against a durable
// platform over dir and then kills it — leaving a journal of known
// length for the recovery cell to replay.
func e12BuildJournal(b *testing.B, dir string, chain, execs int) {
	b.Helper()
	p := core.New(core.Options{Durability: journal.Options{Dir: dir, Fsync: journal.FsyncOff}})
	comp := e12Deploy(b, p, "e12-rec-host", chain)
	ctx := context.Background()
	for e := 0; e < execs; e++ {
		if _, err := comp.Execute(ctx, map[string]string{"x": "0"}); err != nil {
			b.Fatal(err)
		}
	}
	p.Crash()
}

// BenchmarkE12Durability is the durability sweep behind
// BENCH_durability.json. Cells:
//
//   - throughput/journal-off|journal-on: Chain(8) executions back to
//     back, with and without a fsync-off journal at every commit point
//     — the write-path cost of durable instances (appends/op makes the
//     per-execution record count explicit).
//   - rehydrate/tight-cap|roomy-cap: the two-phase AND-join drive from
//     the engine's passivation contract test; tight-cap forces ≥8
//     disk round-trips per cycle and reports µs per rehydration,
//     roomy-cap is the same drive with passivation never triggered.
//   - recovery/len-*: rebuild a crashed platform over journals of
//     increasing length and time Recover — replay cost as a function
//     of journal size.
//
// All cells run fsync-off: the suite measures the journal's code
// paths, not the disk (FsyncBatch/FsyncAlways are configuration, and
// CI runners' fsync latency is pure noise).
func BenchmarkE12Durability(b *testing.B) {
	const n = 8

	b.Run("throughput/journal-off", func(b *testing.B) {
		e12Chain(b, n, core.Options{})
	})
	b.Run("throughput/journal-on", func(b *testing.B) {
		e12Chain(b, n, core.Options{
			Durability: journal.Options{Dir: b.TempDir(), Fsync: journal.FsyncOff},
		})
	})

	b.Run("rehydrate/tight-cap", func(b *testing.B) {
		var rehydrated uint64
		var inDisk time.Duration
		for i := 0; i < b.N; i++ {
			el, re := e12JoinCycle(b, 1)
			if re == 0 {
				b.Fatal("E12: tight cap rehydrated nothing; the pigeonhole guarantee is broken")
			}
			inDisk += el
			rehydrated += re
		}
		b.ReportMetric(float64(rehydrated)/float64(b.N), "rehydrated/op")
		b.ReportMetric(float64(inDisk.Microseconds())/float64(rehydrated), "µs/rehydrate")
	})
	b.Run("rehydrate/roomy-cap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, re := e12JoinCycle(b, 80); re != 0 {
				b.Fatalf("E12: roomy cap rehydrated %d instances, want 0", re)
			}
		}
	})

	for _, execs := range []int{32, 128} {
		b.Run(fmt.Sprintf("recovery/len-%d", execs), func(b *testing.B) {
			const chain = 4
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				e12BuildJournal(b, dir, chain, execs)
				// Life B: fresh providers, same journal directory, the
				// chart re-deployed (reproducing plan version 1 — the
				// version the journal records name).
				p := core.New(core.Options{Durability: journal.Options{Dir: dir, Fsync: journal.FsyncOff}})
				e12Deploy(b, p, "e12-rec-host", chain)
				b.StartTimer()
				stats, err := p.Recover(ctx)
				b.StopTimer()
				if err != nil {
					b.Fatalf("Recover: %v", err)
				}
				if stats.Finished != execs {
					b.Fatalf("E12: replay saw %d finished executions, want %d", stats.Finished, execs)
				}
				p.Close()
				b.StartTimer()
			}
		})
	}
}
