# Development targets for the AQuA timing-fault reproduction.

GO ?= go

.PHONY: all check fmt build vet test allocs race bench experiments quick-experiments faults fences loc a13 a14 a15 a16 a17 a18 race-lifecycle views frames oracle cancel metrics-smoke fuzz clean

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

# The decision path's allocation fences (cached: 0, fresh after replies that
# moved every window: 0, fresh with a quarantined replica: no more than
# without the lifecycle, a reply with the lifecycle on: no more than with it
# off, the repository view's copy into a grown caller buffer after a steady
# reply or one that moves bins: 0, selection on a ranked table: 0, a warm
# one-replica Call: <= 2, a steady cycle of cancelled requests recycled by the
# sweep past their deadline: 0), the replica's (uncancelled serves: one abort
# channel; a serve aborted mid-service: 0; a round trip with a load delay: no
# more than without), the TCP
# frame path's (the endpoint's encode into a warm pooled frame: 0,
# encodeFrame: 1; through a connection's reader and a warm interner a 64 B
# request: <= 2, a Cancel: 1, a 6 KiB request: 2), and the property test
# that pins the in-place path to the from-scratch oracle, uncached so a stale
# pass cannot hide a change.
allocs:
	$(GO) test ./internal/core -count=1 -run 'TestScheduleCachedPathZeroAllocs|TestScheduleFreshPathAllocs|TestLifecycleFilterFreshPathAllocs|TestLifecycleReplyPathAllocs|TestCancelledCycleAllocs|TestFreshPathMatchesOracleProperty'
	$(GO) test ./internal/repository -count=1 -run TestSnapshotIntoAllocs
	$(GO) test ./internal/selection -count=1 -run TestSelectAllocs
	$(GO) test ./internal/gateway -count=1 -run TestCallSteadyStateAllocs
	$(GO) test ./internal/server -count=1 -run 'TestServeReusesAbortChannel|TestAbortAllocs|TestLoadDelaySleepAllocs'
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
#        gateway's timely fraction on at most 1/K of the no-gossip probe traffic;
#        a fourth, ungated phase runs the fleet on the §5.4 subscription alone
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

# Membership views under the race detector, 50 times each: concurrent view
# changes converge on the cluster's view, a view racing client setup or a
# passive client's failover order still lands, the view fence applies in
# order, a rejoining replica is re-subscribed, a handler and the Proteus
# manager drop an older view.
views:
	$(GO) test -race -count=50 . -run 'TestConcurrentViewChangesConverge|TestNewClientSeesViewChangeDuringSetup|TestPassiveClientFollowsViewChanges'
	$(GO) test -race -count=50 ./internal/group -run 'TestFenceAppliesInOrder|TestFencedListenerEndsOnCurrentView'
	$(GO) test -race -count=50 ./internal/gateway -run 'TestGroupRejoinResubscribes|TestApplyViewDropsOlderView'
	$(GO) test -race -count=50 ./internal/proteus -run 'TestObserveViewIgnoresStaleView'

# The TCP frame path under the race detector, 10 times each: concurrent
# senders' frames arrive intact, a multicast frame outlives the fast peer's
# writer until the held peer's writer is done with it, a multicast encodes
# once, the send queue stays bounded, idle writers exit, and a destination's
# queue-depth series goes with its last writer; on the shared connection, a
# reply rides its request's connection, a link that carries frames either
# way is not retired idle, the first frame to a restarted peer is delivered,
# only a connection from the claimed host is adopted, and a write-through's
# remainder goes out before the frame queued behind it.
frames:
	$(GO) test -race -count=10 -run 'TestTCPConcurrentSendersFramesIntact|TestTCPSharedFrameOutlivesFastWriter|TestMulticastEncodesOnce|TestTCPSendQueueBounded|TestTCPIdleSendersExit|TestTCPQueueDepthSeriesFollowsWriters|TestTCPReplyRidesRequestConnection|TestTCPIdleRetireKeepsReversePath|TestTCPFirstFrameAfterPeerRestartDelivered|TestTCPAdoptRequiresMatchingRemoteIP|TestTCPRemainderGoesFirst' ./internal/transport

# The minimum-size oracles, 20 times each with a fresh seed per run: every
# subset of a table up to nine replicas is walked to check that Algorithm 1's
# K is a smallest set that meets Pc(t) after f ∈ {1, 2, 3} crashes, that line
# 15 fires only when no set does, and that the decision's guarantee label
# says which; once on the selection strategy, once on the scheduler's fresh
# and cached decisions with random copies in flight. A failure prints the
# -oracle.seed that reproduces it. With them, the rank order those decisions
# are prefixes of: equal F_Ri(t) by outstanding work, then by ID, in the
# predictor and in the scheduler (a zero-service pool keeps ID order).
oracle:
	$(GO) test -count=20 -run 'TestDynamicMinimumSizeOracle|TestDynamicExactBoundary' ./internal/selection
	$(GO) test -count=20 -run 'TestProbabilityTableTiesByWork|TestProbabilityTableRanked' ./internal/model
	$(GO) test -count=20 -run 'TestScheduleMinimumSizeOracle|TestFreshPathMatchesOracleProperty|TestScheduleTiesByOutstandingWork|TestScheduleZeroServiceTiesByID' ./internal/core

# The cancellation tests under the race detector, 20 times each: which losers
# a first reply cancels (history, a service bin above the round-trip bin, at
# most l in a row), the sweep that recycles a cancelled request, the
# replica's one abort signal, and end to end: slow losers stopped, zero-service
# and Ordered clients never cancelling, a slowed link still leaving K.
cancel:
	$(GO) test -race -count=20 -run 'TestCancel|TestSparedCopyKeepsAdmissionCount|TestSweepRecyclesCancelledAtDeadline' ./internal/core
	$(GO) test -race -count=20 -run 'TestCancel|TestZeroServiceLosersNotCancelled|TestOrderedClientSendsNoCancel|TestSlowedLinkLeavesKUnderCancellation' ./internal/gateway
	$(GO) test -race -count=20 -run 'Cancel|Abort' ./internal/server

# Observability smoke: boots a real cluster, drives traffic, serves the
# metrics endpoint, and validates the Prometheus and JSON scrape shapes
# against the scheduler's own counters.
metrics-smoke:
	$(GO) test . -run TestMetricsEndToEnd -count=1 -v

# Short fuzzing pass over what peers send: the wire codec's frame decoder,
# the encode → decode round trip, the ordered-mode state-transfer frames
# (StateRequest/StateChunk) and the binary codec's byte-exact re-encode, then
# the repository's absorption of arbitrary digest batches beside local
# reports (window size, borrowed counts, local-only export, snapshot views,
# T windows left as they were).
# FUZZTIME is each fuzzer's budget (CI runs `make fuzz FUZZTIME=10s`).
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzStateTransferRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/repository -run '^$$' -fuzz FuzzAbsorbDigests -fuzztime $(FUZZTIME)

clean:
	$(GO) clean -testcache
