# Development targets for the AQuA timing-fault reproduction.

GO ?= go

.PHONY: all check fmt build vet test allocs race bench experiments quick-experiments faults fences loc a13 a14 a15 a16 a17 a18 race-lifecycle metrics-smoke fuzz clean

all: build vet test

# Full gate: formatting, compile, static analysis, tests, the allocation
# fences, and the race detector. Performance is measured by the benchmark in
# bench/ (see bench/README.md); the only fences in this gate are counts, never
# times.
check: fmt build vet test allocs race

# Fails when any Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The decision path's allocation fences (cached: 0, fresh: <= 4, fresh with a
# quarantined replica: no more than without the lifecycle, the repository
# view's copy after a steady reply: 0, selection on a ranked table: 0, a warm
# one-replica Call: <= 2, a replica's uncancelled serves: one abort channel),
# the TCP frame path's (encode: 1, decode through a warm interner: <= 2), and
# the property test that pins the in-place path to the from-scratch oracle,
# uncached so a stale pass cannot hide a change.
allocs:
	$(GO) test ./internal/core -count=1 -run 'TestScheduleCachedPathZeroAllocs|TestScheduleFreshPathAllocs|TestLifecycleFilterFreshPathAllocs|TestFreshPathMatchesOracleProperty'
	$(GO) test ./internal/repository -count=1 -run TestSnapshotIntoAllocs
	$(GO) test ./internal/selection -count=1 -run TestSelectAllocs
	$(GO) test ./internal/gateway -count=1 -run TestCallSteadyStateAllocs
	$(GO) test ./internal/server -count=1 -run TestServeReusesAbortChannel
	$(GO) test ./internal/transport -count=1 -run TestFrameCodecAllocs

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

# Non-test Go lines outside bench/, per package and in total: the size the
# simplicity items of ROADMAP.md are measured in.
loc:
	@find . -name "*.go" ! -name "*_test.go" ! -path "./bench/*" ! -path "./.*" -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } END { for (d in n) printf "%6d  %s\n", n[d], d; printf "%6d  total\n", t }' | LC_ALL=C sort -k2

# One fence at a time: `make a13` ... `make a18`.
a16: EXPFLAGS = -quick
a13 a14 a15 a16 a17 a18:
	$(GO) run ./cmd/aqua-exp -exp $@ $(EXPFLAGS)

# Race detector focused on the lifecycle-bearing packages (CI runs this in
# addition to the full `make race` inside `make check`). The server and root
# packages carry the ordered-mode runtime (stable delivery, state transfer);
# core and gateway carry the forget sweep and the pooled call state
# (TestSweepExpiredDropsAtDeadlinePlusGrace, TestReplyIsOneRepositoryMutation,
# TestPooledCallStateUnderConcurrentCallers, TestRecycledCallStateCarriesNoReply);
# transport carries the shared multicast frames and the per-connection read
# state (TestTCPConcurrentSendersFramesIntact).
race-lifecycle:
	$(GO) test -race ./internal/core ./internal/repository ./internal/proteus ./internal/gateway ./internal/server ./internal/transport .

# Observability smoke: boots a real cluster, drives traffic, serves the
# metrics endpoint, and validates the Prometheus and JSON scrape shapes
# against the scheduler's own counters.
metrics-smoke:
	$(GO) test . -run TestMetricsEndToEnd -count=1 -v

# Short fuzzing pass over the wire codec: the frame decoder, the encode →
# decode round trip, the ordered-mode state-transfer frames
# (StateRequest/StateChunk), and the binary codec's byte-exact re-encode.
fuzz:
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 20s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 20s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzStateTransferRoundTrip -fuzztime 20s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime 20s

clean:
	$(GO) clean -testcache
