# Development targets for the AQuA timing-fault reproduction.

GO ?= go

.PHONY: all check build vet test allocs race bench experiments quick-experiments faults fences a13 a14 a15 a16 a17 a18 race-lifecycle metrics-smoke fuzz clean

all: build vet test

# Full gate: compile, static analysis, tests, the allocation fences, and the
# race detector. Performance is measured by the benchmark in bench/ (see
# bench/README.md); the only fences in this gate are counts, never times.
check: build vet test allocs race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The decision path's allocation fences (cached: 0, fresh: <= 10, a warm
# one-replica Call: <= 10) and the property test that pins the in-place path
# to the from-scratch oracle, uncached so a stale pass cannot hide a change.
allocs:
	$(GO) test ./internal/core -count=1 -run 'TestScheduleCachedPathZeroAllocs|TestScheduleFreshPathAllocs|TestFreshPathMatchesOracleProperty'
	$(GO) test ./internal/gateway -count=1 -run TestCallSteadyStateAllocs

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper figure and ablation (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/aqua-exp -exp all | tee results_all.txt

quick-experiments:
	$(GO) run ./cmd/aqua-exp -exp all -quick

# Fault-injection experiment: timely-response rate under injected loss and
# delay spikes, headless with the fixed default seed (see README).
faults:
	$(GO) run ./cmd/aqua-exp -exp faults

# Every self-checking experiment, in one process (one compile); exits
# non-zero on the first fence miss. See EXPERIMENTS.md for each:
#   a13  overload sweep: paper-exact (A12 select-all collapse) vs budgeted
#        redundancy + admission control
#   a14  §5.4 chaos soak: slow/crash/link churn through suspicion →
#        quarantine → rejuvenation → probation, held to recovery bounds
#   a15  digest fabric: K=4 gossiping gateways must reach 95% of a single warm
#        gateway's timely fraction on at most 1/K of the no-gossip probe traffic
#   a16  WAN deployment ranking: the windowed per-link T's best placement must
#        match or beat the T window of 1's best (quick mode: 1 seed)
#   a17  heavy-tail cancellation + adaptive budget vs static budgets under
#        Pareto service times
#   a18  ordered-mode 27-cell model check + recovery soak; one-line repro per
#        violated cell
fences:
	$(GO) run ./cmd/aqua-exp -exp fences

# One fence at a time: `make a13` ... `make a18`.
a16: EXPFLAGS = -quick
a13 a14 a15 a16 a17 a18:
	$(GO) run ./cmd/aqua-exp -exp $@ $(EXPFLAGS)

# Race detector focused on the lifecycle-bearing packages (CI runs this in
# addition to the full `make race` inside `make check`). The server and root
# packages carry the ordered-mode runtime (stable delivery, state transfer);
# core and gateway carry the forget sweep and the pooled call state
# (TestSweepExpiredDropsAtDeadlinePlusGrace, TestReplyIsOneRepositoryMutation,
# TestPooledCallStateUnderConcurrentCallers, TestRecycledCallStateCarriesNoReply).
race-lifecycle:
	$(GO) test -race ./internal/core ./internal/repository ./internal/proteus ./internal/gateway ./internal/server .

# Observability smoke: boots a real cluster, drives traffic, serves the
# metrics endpoint, and validates the Prometheus and JSON scrape shapes
# against the scheduler's own counters.
metrics-smoke:
	$(GO) test . -run TestMetricsEndToEnd -count=1 -v

# Short fuzzing pass over the wire codec, including the ordered-mode
# state-transfer frames (StateRequest/StateChunk).
fuzz:
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 20s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 20s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzStateTransferRoundTrip -fuzztime 20s

clean:
	$(GO) clean -testcache
