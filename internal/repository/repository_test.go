package repository

import (
	"sync"
	"testing"
	"time"

	"aqua/internal/dist"
	"aqua/internal/wire"
)

const ms = time.Millisecond

func perf(s, q time.Duration, qlen int) wire.PerfReport {
	return wire.PerfReport{ServiceTime: s, QueueDelay: q, QueueLength: qlen}
}

// samples expands a histogram view back into the window it summarizes, in
// ascending order: bin × resolution, count times.
func samples(h HistView) []time.Duration {
	var out []time.Duration
	for i, b := range h.Bins {
		for c := 0; c < h.Counts[i]; c++ {
			out = append(out, time.Duration(b)*resolution)
		}
	}
	return out
}

// only returns the single sample of a one-sample view, or -1.
func only(h HistView) time.Duration {
	if got := samples(h); len(got) == 1 {
		return got[0]
	}
	return -1
}

func TestAddRemoveReplicas(t *testing.T) {
	r := New()
	r.AddReplica("a")
	r.AddReplica("b")
	r.AddReplica("a") // idempotent
	if got := r.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	ids := r.Replicas()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("Replicas() = %v, want sorted [a b]", ids)
	}
	r.RemoveReplica("a")
	if got := r.Len(); got != 1 {
		t.Errorf("Len() after remove = %d, want 1", got)
	}
}

func TestRecordPerfPopulatesSnapshot(t *testing.T) {
	r := New(WithWindowSize(3))
	r.AddReplica("a")
	now := time.Now()
	r.RecordPerf("a", "", perf(10*ms, 5*ms, 2), now)

	snaps := r.Snapshot("")
	if len(snaps) != 1 {
		t.Fatalf("Snapshot len = %d", len(snaps))
	}
	s := snaps[0]
	if !s.HasHistory {
		t.Fatal("HasHistory = false after RecordPerf")
	}
	if only(s.ServiceHist) != 10*ms {
		t.Errorf("service window = %v", samples(s.ServiceHist))
	}
	if only(s.QueueHist) != 5*ms {
		t.Errorf("queue window = %v", samples(s.QueueHist))
	}
	if s.QueueLength != 2 {
		t.Errorf("QueueLength = %d, want 2", s.QueueLength)
	}
	if !s.LastUpdate.Equal(now) {
		t.Errorf("LastUpdate = %v, want %v", s.LastUpdate, now)
	}
	if got := samples(s.ServiceHist); len(got) != 1 {
		t.Errorf("service window = %v, want the one report", got)
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	r := New(WithWindowSize(2))
	r.AddReplica("a")
	for i := 1; i <= 5; i++ {
		r.RecordPerf("a", "", perf(time.Duration(i)*ms, time.Duration(i)*ms, 0), time.Now())
	}
	s := r.Snapshot("")[0]
	if got := samples(s.ServiceHist); len(got) != 2 || got[0] != 4*ms || got[1] != 5*ms {
		t.Errorf("service window = %v, want [4ms 5ms]", got)
	}
}

func TestRecordForUnknownReplicaIgnored(t *testing.T) {
	r := New()
	r.RecordPerf("ghost", "", perf(ms, ms, 1), time.Now())
	r.RecordGatewayDelay("ghost", ms)
	if r.Len() != 0 {
		t.Error("unknown replica should not be materialized")
	}
	if len(r.Snapshot("")) != 0 {
		t.Error("snapshot not empty")
	}
}

func TestGatewayDelayMostRecentWins(t *testing.T) {
	r := New()
	r.AddReplica("a")
	r.RecordPerf("a", "", perf(ms, ms, 0), time.Now())
	r.RecordGatewayDelay("a", 3*ms)
	r.RecordGatewayDelay("a", 9*ms)
	s := r.Snapshot("")[0]
	if got := samples(s.GatewayHist); len(got) != 1 || got[0] != 9*ms {
		t.Errorf("T window = %v, want only the most recent 9ms", got)
	}
}

func TestGatewayDelayNegativeClamped(t *testing.T) {
	// Paper-default point-mass window: a negative (clock-adjustment) sample
	// is clamped to 0 so the estimate stays fresh.
	r := New()
	r.AddReplica("a")
	r.RecordPerf("a", "", perf(ms, ms, 0), time.Now())
	r.RecordGatewayDelay("a", -4*ms)
	if got := only(r.Snapshot("")[0].GatewayHist); got != 0 {
		t.Errorf("T = %v, want clamped 0", got)
	}
}

func TestGatewayDelayNegativeDroppedWithHistory(t *testing.T) {
	// With a T history window a fabricated 0 would put probability mass at a
	// delay that was never observed; the sample is dropped instead.
	r := New(WithGatewayHistory(3))
	r.AddReplica("a")
	r.RecordPerf("a", "", perf(ms, ms, 0), time.Now())
	r.RecordGatewayDelay("a", 5*ms)
	r.RecordGatewayDelay("a", -4*ms)
	s := r.Snapshot("")[0]
	if got := samples(s.GatewayHist); len(got) != 1 || got[0] != 5*ms {
		t.Errorf("T window = %v, want [5ms] (negative sample dropped)", got)
	}
}

func TestGatewayHistoryWindowExposed(t *testing.T) {
	r := New(WithGatewayHistory(3))
	r.AddReplica("a")
	r.RecordPerf("a", "", perf(ms, ms, 0), time.Now())
	r.RecordGatewayDelay("a", 2*ms)
	r.RecordGatewayDelay("a", 4*ms)
	r.RecordGatewayDelay("a", 6*ms)
	s := r.Snapshot("")[0]
	if got := samples(s.GatewayHist); len(got) != 3 || got[0] != 2*ms || got[2] != 6*ms {
		t.Errorf("T window = %v, want [2ms 4ms 6ms]", got)
	}
	if !s.GatewayHist.OK() || s.GatewayHist.Version == 0 {
		t.Errorf("GatewayHist missing: %+v", s.GatewayHist)
	}
	if len(s.GatewayHist.Bins) != 3 {
		t.Errorf("GatewayHist.Bins = %v, want 3 distinct bins", s.GatewayHist.Bins)
	}
	// Eviction: a fourth sample pushes out the oldest and bumps the version.
	before := s.GatewayHist.Version
	r.RecordGatewayDelay("a", 8*ms)
	s = r.Snapshot("")[0]
	if got := samples(s.GatewayHist); len(got) != 3 || got[0] != 4*ms {
		t.Errorf("T window after eviction = %v, want [4ms 6ms 8ms]", got)
	}
	if s.GatewayHist.Version == before {
		t.Error("GatewayHist.Version unchanged after a new sample")
	}
}

func TestGatewayDelaySharedAcrossMethods(t *testing.T) {
	// Regression: the T window is per-link state. A delay recorded with no
	// method history at all (the prober's case) must be visible in every
	// method's snapshot — before the fix it was filed under a per-(replica,
	// method) entry and never reached named methods.
	r := New()
	r.AddReplica("a")
	r.RecordGatewayDelay("a", 7*ms)
	s, err := r.SnapshotOne("a", "someMethod")
	if err != nil {
		t.Fatal(err)
	}
	if got := only(s.GatewayHist); got != 7*ms {
		t.Errorf("Snapshot(someMethod) T = %v, want probe-measured 7ms", got)
	}
	// And once the method has its own S/W history, T still comes from the
	// shared link state.
	r.RecordPerf("a", "someMethod", perf(ms, ms, 0), time.Now())
	s, err = r.SnapshotOne("a", "someMethod")
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasHistory || only(s.GatewayHist) != 7*ms {
		t.Errorf("warm snapshot = {HasHistory:%v T:%v}, want {true [7ms]}", s.HasHistory, samples(s.GatewayHist))
	}
}

func TestSetMembershipPrunes(t *testing.T) {
	r := New()
	r.AddReplica("a")
	r.AddReplica("b")
	r.RecordPerf("a", "", perf(ms, ms, 0), time.Now())
	r.SetMembership([]wire.ReplicaID{"b", "c"})
	ids := r.Replicas()
	if len(ids) != 2 || ids[0] != "b" || ids[1] != "c" {
		t.Fatalf("Replicas() = %v, want [b c]", ids)
	}
	// Rejoining "a" must not resurrect stale history.
	r.AddReplica("a")
	s, err := r.SnapshotOne("a", "")
	if err != nil {
		t.Fatal(err)
	}
	if s.HasHistory {
		t.Error("rejoined replica kept stale history")
	}
	if !s.LastUpdate.IsZero() {
		t.Errorf("rejoined replica kept its freshness marker %v", s.LastUpdate)
	}
}

func TestPerMethodHistories(t *testing.T) {
	r := New()
	r.AddReplica("a")
	r.RecordPerf("a", "search", perf(10*ms, ms, 0), time.Now())
	r.RecordPerf("a", "index", perf(90*ms, ms, 0), time.Now())

	s, err := r.SnapshotOne("a", "search")
	if err != nil {
		t.Fatal(err)
	}
	if only(s.ServiceHist) != 10*ms {
		t.Errorf("search history = %v", samples(s.ServiceHist))
	}
	s, err = r.SnapshotOne("a", "index")
	if err != nil {
		t.Fatal(err)
	}
	if only(s.ServiceHist) != 90*ms {
		t.Errorf("index history = %v", samples(s.ServiceHist))
	}
	// Unknown method: replica listed but cold.
	s, err = r.SnapshotOne("a", "delete")
	if err != nil {
		t.Fatal(err)
	}
	if s.HasHistory {
		t.Error("unknown method should have no history")
	}
}

func TestSnapshotOneUnknown(t *testing.T) {
	r := New()
	if _, err := r.SnapshotOne("nope", ""); err == nil {
		t.Error("want error for unknown replica")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	r := New()
	r.AddReplica("a")
	r.RecordPerf("a", "", perf(ms, ms, 0), time.Now())
	s := r.Snapshot("")[0]
	s.ServiceHist.Bins[0] = 99
	s.ServiceHist.Counts[0] = 7
	if got := only(r.Snapshot("")[0].ServiceHist); got != ms {
		t.Errorf("snapshot aliases repository state: window now %v", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := New(WithWindowSize(0), WithGatewayHistory(-1))
	if r.windowSize != DefaultWindowSize {
		t.Errorf("window size = %d, want default %d", r.windowSize, DefaultWindowSize)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New()
	ids := []wire.ReplicaID{"a", "b", "c", "d"}
	for _, id := range ids {
		r.AddReplica(id)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := ids[i%len(ids)]
			for j := 0; j < 200; j++ {
				r.RecordPerf(id, "", perf(ms, ms, j), time.Now())
				r.RecordGatewayDelay(id, ms)
				_ = r.Snapshot("")
				_ = r.Replicas()
			}
		}(i)
	}
	wg.Wait()
	if s, err := r.SnapshotOne("a", ""); err != nil || !s.HasHistory {
		t.Errorf("no updates recorded under concurrency: %+v, %v", s, err)
	}
}

func TestSnapshotCarriesHistograms(t *testing.T) {
	r := New(WithWindowSize(3))
	r.AddReplica("a")
	now := time.Now()
	for i, s := range []time.Duration{10 * ms, 10 * ms, 20 * ms, 30 * ms} { // 4 samples: one eviction
		r.RecordPerf("a", "m", perf(s, time.Duration(i)*ms, 0), now)
	}
	snap, err := r.SnapshotOne("a", "m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Method != "m" {
		t.Errorf("snapshot method %q, want m", snap.Method)
	}
	if !snap.ServiceHist.OK() || !snap.QueueHist.OK() {
		t.Fatal("snapshot missing histograms")
	}
	// Window holds {10, 20, 30}: the first 10ms was evicted.
	if got := snap.ServiceHist.Bins; len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("service hist bins = %v, want [10 20 30]", got)
	}
	for _, c := range snap.ServiceHist.Counts {
		if c != 1 {
			t.Errorf("service hist counts = %v, want all 1", snap.ServiceHist.Counts)
		}
	}
	if snap.ServiceHist.Version == 0 || snap.ServiceHist.Version == snap.QueueHist.Version {
		t.Errorf("versions not distinct/monotonic: S=%d W=%d", snap.ServiceHist.Version, snap.QueueHist.Version)
	}
	// A further report must change both versions.
	before := snap.ServiceHist.Version
	r.RecordPerf("a", "m", perf(10*ms, ms, 0), now)
	snap2, err := r.SnapshotOne("a", "m")
	if err != nil {
		t.Fatal(err)
	}
	if snap2.ServiceHist.Version == before {
		t.Error("service hist version unchanged after RecordPerf")
	}
}

// TestHistogramMatchesRawSamplesAcrossEvictions replays the reports into a
// plain slice and checks every snapshot's histogram against the last l of
// them, quantized the way the model would.
func TestHistogramMatchesRawSamplesAcrossEvictions(t *testing.T) {
	const l = 5
	r := New(WithWindowSize(l))
	r.AddReplica("a")
	now := time.Now()
	var raw []time.Duration
	for i := 0; i < 40; i++ {
		v := time.Duration(i%13)*ms + time.Duration(i%4)*300*time.Microsecond
		raw = append(raw, v)
		r.RecordPerf("a", "", perf(v, time.Duration(i%7)*ms, 0), now)
		snap, err := r.SnapshotOne("a", "")
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64]int{}
		for _, v := range raw[max(0, len(raw)-l):] {
			want[dist.Quantize(v, dist.DefaultResolution)]++
		}
		got := map[int64]int{}
		for j, b := range snap.ServiceHist.Bins {
			got[b] = snap.ServiceHist.Counts[j]
		}
		if len(want) != len(got) {
			t.Fatalf("iteration %d: hist %v, want %v", i, got, want)
		}
		for b, c := range want {
			if got[b] != c {
				t.Fatalf("iteration %d: hist %v, want %v", i, got, want)
			}
		}
	}
}

func TestInFlightTracking(t *testing.T) {
	r := New()
	r.AddReplica("a")
	r.AddReplica("b")
	rows := r.Snapshot("") // taken before any dispatch

	r.NoteDispatched("a")
	r.NoteDispatched("a")
	r.NoteDispatched("b")
	if got := r.InFlight("a"); got != 2 {
		t.Errorf("InFlight(a) = %d, want 2", got)
	}
	if got := r.TotalInFlight(); got != 3 {
		t.Errorf("TotalInFlight() = %d, want 3", got)
	}

	// FillInFlight reads the live counters for the listed replicas, so the
	// budgeted strategy and the predictor's tie order see load before the
	// first perf report comes back, through a snapshot taken before the
	// dispatches.
	if rows[0].InFlight != 0 || rows[1].InFlight != 0 {
		t.Errorf("snapshot carries InFlight %d, %d before FillInFlight, want 0, 0", rows[0].InFlight, rows[1].InFlight)
	}
	if got := r.FillInFlight(rows); got != 3 || rows[0].InFlight != 2 || rows[1].InFlight != 1 {
		t.Errorf("FillInFlight(rows) = %d with %s %d, %s %d; want 3 with 2, 1", got, rows[0].ID, rows[0].InFlight, rows[1].ID, rows[1].InFlight)
	}
	if got := r.FillInFlight(rows[:1]); got != 2 {
		t.Errorf("FillInFlight(%s) = %d, want 2", rows[0].ID, got)
	}
	ghost := []ReplicaSnapshot{{ID: "ghost", InFlight: 7}}
	if got := r.FillInFlight(ghost); got != 0 || ghost[0].InFlight != 0 {
		t.Errorf("FillInFlight(ghost) = %d with InFlight %d, want 0, 0", got, ghost[0].InFlight)
	}
	if shared := r.SnapshotShared(""); shared[0].InFlight != 0 {
		t.Errorf("shared snapshot carries InFlight %d, want 0: the live count is not part of the view", shared[0].InFlight)
	}

	r.NoteSettled("a")
	if got := r.InFlight("a"); got != 1 {
		t.Errorf("InFlight(a) after settle = %d, want 1", got)
	}
	// Settling never goes negative, even with spurious extra settles.
	r.NoteSettled("a")
	r.NoteSettled("a")
	if got := r.InFlight("a"); got != 0 {
		t.Errorf("InFlight(a) after over-settle = %d, want 0", got)
	}

	// Unknown replicas (e.g. settled after a membership purge) are no-ops.
	r.NoteDispatched("ghost")
	r.NoteSettled("ghost")
	if got := r.InFlight("ghost"); got != 0 {
		t.Errorf("InFlight(ghost) = %d, want 0", got)
	}

	// Removal drops the replica's in-flight count from the total.
	r.RemoveReplica("b")
	if got := r.TotalInFlight(); got != 0 {
		t.Errorf("TotalInFlight() after removal = %d, want 0", got)
	}
}

// TestSharedSnapshotRebuildAllocs fixes what bringing the shared snapshot up
// to date after one reply allocates, at any pool size: the new shared slice,
// and one bins and one counts block for the replica that replied. Every other
// replica's entry is carried over.
func TestSharedSnapshotRebuildAllocs(t *testing.T) {
	rebuildAllocs := func(n int) float64 {
		r := New()
		ids := make([]wire.ReplicaID, n)
		now := time.Now()
		for i := range ids {
			ids[i] = wire.ReplicaID(rune('a' + i))
			r.AddReplica(ids[i])
			for j := 0; j < DefaultWindowSize; j++ {
				r.RecordPerf(ids[i], "", perf(time.Duration(5+j)*ms, time.Duration(j)*ms, 0), now)
			}
			r.RecordGatewayDelay(ids[i], ms)
		}
		before := r.SnapshotShared("")
		turn := 0
		allocs := testing.AllocsPerRun(100, func() {
			turn++
			r.RecordReply(ids[turn%n], "", perf(time.Duration(turn%9)*ms, time.Duration(turn%4)*ms, 0), time.Duration(turn%3)*ms, now)
			if got := r.SnapshotShared(""); len(got) != n {
				t.Fatalf("snapshot has %d of %d replicas", len(got), n)
			}
		})
		// A published slice is never written again.
		if again := r.Snapshot(""); before[0].ServiceHist.Version == again[0].ServiceHist.Version {
			t.Fatal("the loop never moved replica a's window")
		}
		if b := before[0].ServiceHist; len(b.Bins) != DefaultWindowSize || b.Bins[0] != 5 {
			t.Fatalf("a snapshot published before the loop now reads %v", b)
		}
		return allocs
	}
	small, large := rebuildAllocs(4), rebuildAllocs(12)
	if small > 3 || large > 3 {
		t.Fatalf("a snapshot after one reply allocates %.0f times at 4 replicas and %.0f at 12, want <= 3 at any size", small, large)
	}
}
