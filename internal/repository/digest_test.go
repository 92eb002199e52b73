package repository

// Fences for the borrowed-digest tier: local evidence displaces borrowed
// samples one for one, borrowed data never advances probation, stale digests
// are dropped, and only locally measured windows are ever exported.

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"aqua/internal/dist"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

const dms = time.Millisecond

// digestFor builds a single-entry DigestSync around the given digests.
func digestSyncFor(seq uint64, digests ...wire.WindowDigest) wire.DigestSync {
	return wire.DigestSync{
		Client:          "peer",
		Service:         "svc",
		Seq:             seq,
		ResolutionNanos: dist.DefaultResolution.Nanoseconds(),
		Digests:         digests,
	}
}

// fullDigest is a window-filling digest for one replica: five service samples
// at 10ms and five queue samples at 2ms.
func fullDigest(id wire.ReplicaID) wire.WindowDigest {
	return wire.WindowDigest{
		Replica:       id,
		ServiceBins:   []int64{10},
		ServiceCounts: []int64{5},
		QueueBins:     []int64{2},
		QueueCounts:   []int64{5},
		QueueLength:   2,
	}
}

// TestBorrowedDisplacement: an absorbed digest fills the window for a cold
// replica; every local report then displaces exactly one borrowed sample, the
// merged view never exceeds l, and a full local window ends the tier.
func TestBorrowedDisplacement(t *testing.T) {
	repo := New()
	repo.AddReplica("r1")
	now := time.Now()
	absorbed, stale := repo.AbsorbDigests(digestSyncFor(1, fullDigest("r1")), now)
	if absorbed != 1 || stale != 0 {
		t.Fatalf("absorbed %d stale %d, want 1/0", absorbed, stale)
	}
	if got := repo.BorrowedLen("r1", ""); got != DefaultWindowSize {
		t.Fatalf("BorrowedLen = %d, want %d", got, DefaultWindowSize)
	}
	snap, err := repo.SnapshotOne("r1", "")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.HasHistory {
		t.Fatal("borrowed digest did not establish history (cold-start select-all would fire)")
	}
	if got := samples(snap.ServiceHist); len(got) != DefaultWindowSize || got[0] != 10*dms {
		t.Fatalf("service window = %v", got)
	}
	if snap.QueueLength != 2 {
		t.Fatalf("QueueLength = %d, want borrowed 2", snap.QueueLength)
	}

	for i := 1; i <= DefaultWindowSize; i++ {
		repo.RecordPerf("r1", "", wire.PerfReport{ServiceTime: 20 * dms, QueueDelay: 4 * dms, QueueLength: 1}, now.Add(time.Duration(i)*time.Second))
		snap, err = repo.SnapshotOne("r1", "")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := repo.BorrowedLen("r1", ""), DefaultWindowSize-i; got != want {
			t.Fatalf("after %d local reports: BorrowedLen = %d, want %d", i, got, want)
		}
		var total int
		for j, b := range snap.ServiceHist.Bins {
			total += snap.ServiceHist.Counts[j]
			if b != 10 && b != 20 {
				t.Fatalf("unexpected service bin %d", b)
			}
		}
		if total != DefaultWindowSize {
			t.Fatalf("after %d local reports: merged hist holds %d counts", i, total)
		}
	}
	// Fully displaced: pure local evidence, borrowed tier gone.
	for _, v := range samples(snap.ServiceHist) {
		if v != 20*dms {
			t.Fatalf("borrowed sample survived full displacement: %v", samples(snap.ServiceHist))
		}
	}
	if got := repo.BorrowedLen("r1", ""); got != 0 {
		t.Fatalf("BorrowedLen = %d after displacement, want 0", got)
	}
}

// TestBorrowedNeverPromotesProbation: digest absorption must not count
// toward probation promotion — only real performance reports re-admit.
func TestBorrowedNeverPromotesProbation(t *testing.T) {
	repo := New()
	repo.EnableLifecycle(Lifecycle{ProbationSamples: 3})
	repo.SetMembership([]wire.ReplicaID{"r1"}) // bootstrap view
	repo.SetMembership([]wire.ReplicaID{"r1", "newcomer"})
	if h, _ := repo.Health("newcomer"); h != Probation {
		t.Fatalf("newcomer health = %v, want probation", h)
	}
	now := time.Now()
	for seq := uint64(1); seq <= 10; seq++ {
		d := fullDigest("newcomer")
		repo.AbsorbDigests(digestSyncFor(seq, d), now.Add(time.Duration(seq)*time.Second))
	}
	if h, _ := repo.Health("newcomer"); h != Probation {
		t.Fatalf("borrowed digests promoted the newcomer to %v", h)
	}
	snap, err := repo.SnapshotOne("newcomer", "")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.HasHistory {
		t.Fatal("absorbed digests should still seed the newcomer's predictions")
	}
	// Real reports (probe replies) still promote as configured.
	for i := 0; i < 3; i++ {
		repo.RecordPerf("newcomer", "", wire.PerfReport{ServiceTime: dms}, now)
	}
	if h, _ := repo.Health("newcomer"); h != Active {
		t.Fatalf("health = %v after 3 real reports, want active", h)
	}
}

// TestAbsorbStaleDigestDropped: a digest older than the one already borrowed
// (or for an unknown replica) is counted stale and changes nothing.
func TestAbsorbStaleDigestDropped(t *testing.T) {
	repo := New()
	repo.AddReplica("r1")
	now := time.Now()
	fresh := fullDigest("r1")
	repo.AbsorbDigests(digestSyncFor(1, fresh), now)

	older := fullDigest("r1")
	older.ServiceBins = []int64{99}
	older.AgeNanos = (10 * time.Second).Nanoseconds()
	absorbed, stale := repo.AbsorbDigests(digestSyncFor(2, older), now)
	if absorbed != 0 || stale != 1 {
		t.Fatalf("stale digest: absorbed %d stale %d, want 0/1", absorbed, stale)
	}
	snap, err := repo.SnapshotOne("r1", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range samples(snap.ServiceHist) {
		if v == 99*dms {
			t.Fatal("stale digest contents leaked into the window")
		}
	}

	unknown := fullDigest("ghost")
	absorbed, stale = repo.AbsorbDigests(digestSyncFor(3, unknown), now)
	if absorbed != 0 || stale != 1 {
		t.Fatalf("unknown replica: absorbed %d stale %d, want 0/1", absorbed, stale)
	}
}

// TestExportDigestsLocalOnly: borrowed samples are never re-exported, so the
// fabric cannot echo or amplify second-hand data.
func TestExportDigestsLocalOnly(t *testing.T) {
	repo := New()
	repo.AddReplica("r1")
	repo.AddReplica("r2")
	now := time.Now()
	repo.AbsorbDigests(digestSyncFor(1, fullDigest("r1")), now)
	if digests := repo.ExportDigests(now); len(digests) != 0 {
		t.Fatalf("borrowed-only repository exported %d digests, want 0", len(digests))
	}
	repo.RecordPerf("r2", "", wire.PerfReport{ServiceTime: 7 * dms, QueueDelay: dms}, now)
	digests := repo.ExportDigests(now)
	if len(digests) != 1 || digests[0].Replica != "r2" {
		t.Fatalf("exported %v, want exactly r2's local window", digests)
	}
	if digests[0].ServiceBins[0] != 7 {
		t.Fatalf("service bins = %v, want [7]", digests[0].ServiceBins)
	}
}

// TestBorrowedFreshnessSuppressesStaleness: a fresh digest for a replica with
// stale (or no) local history advances the snapshot's LastUpdate, which is
// what lets one gateway's probes stand in for the whole fleet's.
func TestBorrowedFreshnessSuppressesStaleness(t *testing.T) {
	repo := New()
	repo.AddReplica("r1")
	old := time.Now().Add(-time.Hour)
	repo.RecordPerf("r1", "", wire.PerfReport{ServiceTime: dms}, old)
	now := time.Now()
	d := fullDigest("r1")
	d.AgeNanos = (50 * time.Millisecond).Nanoseconds()
	repo.AbsorbDigests(digestSyncFor(1, d), now)
	snap, err := repo.SnapshotOne("r1", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := now.Sub(snap.LastUpdate); got < 0 || got > time.Second {
		t.Fatalf("LastUpdate lag = %v, want ~the digest's 50ms age", got)
	}
}

// TestBorrowedVouchSuppressedForNonActive: borrowed digests must not
// freshness-vouch a replica that is not Active. A restarted replica mid
// state transfer answers peers' probes timely — so their digests look fresh
// — while its state machine is still behind the group; folding that vouch
// into LastUpdate would suppress this gateway's own staleness probes and
// starve the probation warm-up the re-admission gate depends on.
func TestBorrowedVouchSuppressedForNonActive(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(r *Repository)
		want  Health
	}{
		{"probation", func(r *Repository) {
			r.SetMembership([]wire.ReplicaID{"r1"}) // bootstrap view
			r.SetMembership([]wire.ReplicaID{"r1", "rx"})
		}, Probation},
		{"quarantined", func(r *Repository) {
			r.SetMembership([]wire.ReplicaID{"rx"})
			r.Quarantine("rx")
		}, Quarantined},
		{"suspected", func(r *Repository) {
			r.SetMembership([]wire.ReplicaID{"rx"})
			for _, late := range []bool{true, false, true, false, true, false, true, false} {
				r.RecordOutcome("rx", late) // a fault rate of 0.5
			}
		}, Suspected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repo := New()
			repo.EnableLifecycle(Lifecycle{ProbationSamples: 3})
			tc.setup(repo)
			if h, _ := repo.Health("rx"); h != tc.want {
				t.Fatalf("setup health = %v, want %v", h, tc.want)
			}
			// A stale local report, then a fresh borrowed digest.
			old := time.Now().Add(-time.Hour)
			repo.RecordPerf("rx", "", wire.PerfReport{ServiceTime: dms}, old)
			d := fullDigest("rx")
			d.AgeNanos = (50 * time.Millisecond).Nanoseconds()
			repo.AbsorbDigests(digestSyncFor(1, d), time.Now())
			snap, err := repo.SnapshotOne("rx", "")
			if err != nil {
				t.Fatal(err)
			}
			if !snap.LastUpdate.Equal(old) {
				t.Fatalf("%s replica was freshness-vouched by a borrowed digest: LastUpdate %v, want the stale local %v",
					tc.want, snap.LastUpdate, old)
			}
		})
	}

	// Control: the identical digest does vouch for an Active replica.
	repo := New()
	repo.EnableLifecycle(Lifecycle{ProbationSamples: 3})
	repo.SetMembership([]wire.ReplicaID{"rx"}) // bootstrap view: Active
	old := time.Now().Add(-time.Hour)
	repo.RecordPerf("rx", "", wire.PerfReport{ServiceTime: dms}, old)
	d := fullDigest("rx")
	d.AgeNanos = (50 * time.Millisecond).Nanoseconds()
	now := time.Now()
	repo.AbsorbDigests(digestSyncFor(1, d), now)
	snap, err := repo.SnapshotOne("rx", "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.LastUpdate.Equal(old) {
		t.Fatal("active replica should still be freshness-vouched by borrowed digests")
	}
}

// TestAbsorbNeverWritesGatewayWindow: T is a property of this gateway's own
// link to the replica, so AbsorbDigests never writes the T window. It stays
// empty through every digest until the first local delay, and holds only
// local delays after it.
func TestAbsorbNeverWritesGatewayWindow(t *testing.T) {
	repo := New(WithGatewayHistory(3))
	repo.AddReplica("r1")
	now := time.Now()
	snapshot := func() ReplicaSnapshot {
		t.Helper()
		snap, err := repo.SnapshotOne("r1", "")
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if absorbed, _ := repo.AbsorbDigests(digestSyncFor(seq, fullDigest("r1")), now.Add(time.Duration(seq)*time.Second)); absorbed != 1 {
			t.Fatalf("digest %d not absorbed", seq)
		}
		snap := snapshot()
		if !snap.HasHistory {
			t.Fatalf("digest %d did not establish S and W history", seq)
		}
		if snap.GatewayHist.OK() {
			t.Fatalf("after digest %d: T view %+v, want empty before any local delay", seq, snap.GatewayHist)
		}
	}
	repo.RecordGatewayDelay("r1", 8*dms)
	repo.AbsorbDigests(digestSyncFor(4, fullDigest("r1")), now.Add(4*time.Second))
	if got := samples(snapshot().GatewayHist); !reflect.DeepEqual(got, []time.Duration{8 * dms}) {
		t.Fatalf("T after a local delay and a digest = %v, want the local [8ms]", got)
	}
}

// TestFresherDigestKeepsLocalSamples: a fresher digest replaces the
// borrowed samples wholesale and keeps every local one, fills only the room
// they leave, and leaves the export purely local.
func TestFresherDigestKeepsLocalSamples(t *testing.T) {
	repo := New()
	repo.AddReplica("r1")
	now := time.Now()
	repo.AbsorbDigests(digestSyncFor(1, fullDigest("r1")), now)
	for _, s := range []time.Duration{20 * dms, 21 * dms} {
		repo.RecordPerf("r1", "", perf(s, 4*dms, 1), now)
	}
	fresher := wire.WindowDigest{
		Replica:       "r1",
		ServiceBins:   []int64{30, 31},
		ServiceCounts: []int64{3, 2},
		QueueBins:     []int64{6},
		QueueCounts:   []int64{5},
	}
	if absorbed, _ := repo.AbsorbDigests(digestSyncFor(2, fresher), now.Add(time.Second)); absorbed != 1 {
		t.Fatal("fresher digest not absorbed")
	}
	snap, err := repo.SnapshotOne("r1", "")
	if err != nil {
		t.Fatal(err)
	}
	// subsample keeps 3 of [30 30 30 31 31]: indexes 0, 2 and 4.
	want := []time.Duration{20 * dms, 21 * dms, 30 * dms, 30 * dms, 31 * dms}
	if got := samples(snap.ServiceHist); !reflect.DeepEqual(got, want) {
		t.Fatalf("service window = %v, want 3 fresher borrowed and the 2 local %v", got, want)
	}
	if got, want := samples(snap.QueueHist), []time.Duration{4 * dms, 4 * dms, 6 * dms, 6 * dms, 6 * dms}; !reflect.DeepEqual(got, want) {
		t.Fatalf("queue window = %v, want %v", got, want)
	}
	if got := repo.BorrowedLen("r1", ""); got != 3 {
		t.Fatalf("BorrowedLen = %d, want 3", got)
	}
	if snap.GatewayHist.OK() {
		t.Fatalf("T view %+v after digests alone, want empty", snap.GatewayHist)
	}
	digests := repo.ExportDigests(now)
	if len(digests) != 1 {
		t.Fatalf("exported %d digests, want 1", len(digests))
	}
	d := digests[0]
	if !reflect.DeepEqual(d.ServiceBins, []int64{20, 21}) || !reflect.DeepEqual(d.ServiceCounts, []int64{1, 1}) {
		t.Fatalf("exported service %v×%v, want only the local [20 21]×[1 1]", d.ServiceBins, d.ServiceCounts)
	}
	if !reflect.DeepEqual(d.QueueBins, []int64{4}) || !reflect.DeepEqual(d.QueueCounts, []int64{2}) {
		t.Fatalf("exported queue %v×%v, want only the local [4]×[2]", d.QueueBins, d.QueueCounts)
	}
}

// TestMergedHistViewMatchesSamples pins the view a snapshot publishes of a
// window holding borrowed and local samples together to the pmf of the
// samples the test itself fed in: the digest's reconstructed values
// subsampled to l, minus one for each local report while any are left, then
// the local reports, of which the window keeps the last l. Randomized over
// window size, digest contents (overlapping and disjoint bins,
// sub-resolution jitter on the local side) and how far local reports have
// displaced the borrowed samples, from untouched to gone.
func TestMergedHistViewMatchesSamples(t *testing.T) {
	rng := stats.NewRand(17)
	now := time.Now()
	merged := 0
	for trial := 0; trial < 400; trial++ {
		l := 1 + rng.Intn(30)
		repo := New(WithWindowSize(l))
		repo.AddReplica("r")
		d := wire.WindowDigest{Replica: "r"}
		bins := 1 + rng.Intn(8)
		for b := int64(rng.Intn(5)); len(d.ServiceBins) < bins; b += 1 + int64(rng.Intn(6)) {
			d.ServiceBins = append(d.ServiceBins, b)
			d.ServiceCounts = append(d.ServiceCounts, 1+int64(rng.Intn(4)))
			d.QueueBins = append(d.QueueBins, b/2+int64(len(d.QueueBins)))
			d.QueueCounts = append(d.QueueCounts, 1+int64(rng.Intn(4)))
		}
		if absorbed, _ := repo.AbsorbDigests(digestSyncFor(1, d), now); absorbed != 1 {
			t.Fatalf("trial %d: digest not absorbed", trial)
		}
		// Expected contents, per axis: borrowed, then local, oldest first.
		res := dist.DefaultResolution
		borrowed := [2][]time.Duration{
			subsample(reconstruct(d.ServiceBins, d.ServiceCounts, res), l),
			subsample(reconstruct(d.QueueBins, d.QueueCounts, res), l),
		}
		var local [2][]time.Duration
		for k := rng.Intn(l + 2); k > 0; k-- {
			jitter := time.Duration(rng.Intn(1000)) * time.Microsecond
			p := perf(time.Duration(rng.Intn(40))*dms+jitter, time.Duration(rng.Intn(20))*dms+jitter, 0)
			repo.RecordPerf("r", "", p, now)
			for a, v := range []time.Duration{p.ServiceTime, p.QueueDelay} {
				if len(borrowed[a]) > 0 {
					borrowed[a] = borrowed[a][1:]
				}
				if local[a] = append(local[a], v); len(local[a]) > l {
					local[a] = local[a][1:]
				}
			}
		}
		if len(borrowed[0]) > 0 && len(local[0]) > 0 {
			merged++
		}
		snap, err := repo.SnapshotOne("r", "")
		if err != nil {
			t.Fatal(err)
		}
		for a, view := range []HistView{snap.ServiceHist, snap.QueueHist} {
			vals := append(slices.Clone(borrowed[a]), local[a]...)
			if len(vals) > l {
				t.Fatalf("trial %d axis %d: expected window holds %d samples, l=%d", trial, a, len(vals), l)
			}
			want, err := dist.FromSamples(vals, res)
			if err != nil {
				t.Fatal(err)
			}
			got := &dist.PMF{}
			if err := got.SetCounts(res, view.Bins, view.Counts); err != nil {
				t.Fatalf("trial %d axis %d: view %+v: %v", trial, a, view, err)
			}
			wv, wp := want.Points()
			gv, gp := got.Points()
			if !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(wp, gp) {
				t.Fatalf("trial %d axis %d: view pmf %v %v, want %v %v", trial, a, gv, gp, wv, wp)
			}
		}
		if got := repo.BorrowedLen("r", ""); got != len(borrowed[0]) {
			t.Fatalf("trial %d: BorrowedLen = %d, want %d", trial, got, len(borrowed[0]))
		}
	}
	if merged < 100 {
		t.Fatalf("only %d trials held borrowed and local samples together", merged)
	}
}
