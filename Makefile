GO ?= go

.PHONY: verify
verify: ## tier-1 gate: everything builds, all tests pass
	$(GO) build ./...
	$(GO) test ./...

.PHONY: race
race: ## tier-1 plus the race detector on the concurrent packages
	$(GO) test -race ./internal/engine/ ./internal/transport/ ./internal/core/ ./internal/message/ ./internal/journal/

.PHONY: bench
bench: ## every experiment, E1-E12 (the BENCH_*.json files record the series)
	$(GO) test -bench=. -benchmem -run '^$$' .

.PHONY: bench-e3
bench-e3: ## E3 only: P2P vs centralized orchestration latency
	$(GO) test -bench=BenchmarkE3 -benchmem -run '^$$' .

.PHONY: bench-crossround
bench-crossround: ## cross-round batching sweep (compare against BENCH_crossround.json)
	$(GO) test -bench=BenchmarkE3PipelinedChainTCP -run '^$$' .

# Short fixed-iteration run of the E8 concurrent-instance sweep
# (M in-flight executions over Parallel(8)/Chain(8), p50 + execs/sec).
# CI runs this as a smoke job on every push: a regression guard by
# inspection against BENCH_concurrency.json — no hard threshold, since
# shared runners make absolute throughput numbers noisy.
.PHONY: bench-concurrency
bench-concurrency:
	$(GO) test -bench=BenchmarkE8ConcurrentInstances -benchtime=300x -run '^$$' .

# Short fixed-iteration run of the E9 availability sweep: P2P vs central
# completion under 0/1/3/8% message loss, then the chaos sweep (loss x
# provider-death x overload, churn layer off vs on, completion rate +
# p95). CI runs this as a smoke job; BENCH_availability.json records the
# full series.
.PHONY: bench-availability
bench-availability:
	$(GO) test -bench=BenchmarkE9Availability -benchtime=50x -run '^$$' .

# Short fixed-iteration run of the E10 scale-out sweep: builds hostd,
# spawns real hostd processes at 1/2/4 replicas per service state and
# measures execs/sec. The run itself asserts the routing-never-RPCs
# invariant — it FAILS if the wrapper exchanges anything but exactly 1
# message out and 1 in per execution at any replica count. CI smoke;
# BENCH_scaleout.json records the full series.
.PHONY: bench-scaleout
bench-scaleout:
	$(GO) test -bench=BenchmarkE10ScaleOut -benchtime=40x -run '^$$' .

# Short fixed-iteration run of the E12 durability sweep: Chain(8)
# executions with and without a journal at every commit point, the
# AND-join passivate/rehydrate cycle (µs per disk round-trip), and
# crashed-platform recovery time vs journal length. Everything runs
# fsync-off — the sweep measures the journal's code paths, not CI
# runners' disks. The run itself FAILS if a tight-cap cycle rehydrates
# nothing or a replay loses a finished execution. CI smoke;
# BENCH_durability.json records the full series.
.PHONY: bench-durability
bench-durability:
	$(GO) test -bench=BenchmarkE12Durability -benchtime=20x -run '^$$' .

# Short fixed-iteration run of the E11 live-redeploy sweep: Chain(8)
# executed while plan versions swap underneath the driver (in-process
# platform swap, controlplane-managed fleet rollout, and control plane
# dead). The run itself asserts the zero-failed-executions and
# zero-admin-calls-in-hot-path invariants — it FAILS if a live swap
# drops work or an execution touches the control plane. CI smoke;
# BENCH_redeploy.json records the full series.
.PHONY: bench-redeploy
bench-redeploy:
	$(GO) test -bench=BenchmarkE11Redeploy -benchtime=300x -run '^$$' .

# perfbench/ is its own module, so the root `go test ./...` never
# compiles it: vet and test it on its own so an API change in the root
# module cannot silently break the benchmark.
.PHONY: perfbench-check
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

COVER_FLOOR ?= 80

.PHONY: cover
cover: ## coverage floor on the concurrency- and availability-critical packages
	$(GO) test -coverprofile=cover.out ./internal/transport/ ./internal/engine/ ./internal/community/ ./internal/qos/ ./internal/circuit/ ./internal/limits/ ./internal/journal/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "transport+engine+community+qos+circuit+limits+journal coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

FUZZTIME ?= 30s

.PHONY: fuzz
fuzz: ## short fuzz pass over the wire decoders and the frame merge
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzUnmarshalBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/message -run '^$$' -fuzz 'FuzzMergeBatch$$' -fuzztime $(FUZZTIME)

.PHONY: flake
flake: ## liveness/flake hunt: the concurrent packages, race detector, 10 loops
	# Covers the 64-way concurrent-Execute stress test (engine
	# stress_test.go), the receive-lane FIFO contract (transport
	# faults_test.go), the churn chaos suite (core churn_test.go), the
	# community failover/health races (community churn_test.go), and the
	# durability suite — crash recovery mid-Chain(8) over both
	# transports, passivate/rehydrate byte-identity (core
	# durability_test.go, engine passivate_test.go), and journal
	# torn-tail repair (journal package).
	$(GO) test -race -count=10 ./internal/engine/ ./internal/transport/ ./internal/core/ ./internal/community/ ./internal/journal/

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: lint
lint: ## selfservvet analyzer suite + gofmt, over the whole tree
	$(GO) run ./cmd/selfservvet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
