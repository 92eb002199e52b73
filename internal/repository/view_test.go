package repository_test

// Fences for the per-method view the repository refreshes in place: every copy
// it hands out (SnapshotInto, SnapshotShared) must equal a from-scratch
// Snapshot row for row, a caller's writes to its copy — histogram contents
// included — must never reach the view or another copy, and a SnapshotShared
// slice must never change afterwards.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"aqua/internal/core"
	"aqua/internal/dist"
	"aqua/internal/repository"
	"aqua/internal/wire"
)

const ms = time.Millisecond

// deepCopy copies rows together with the histogram slices they reference, so a
// later write to either shows up as a difference.
func deepCopy(rows []repository.ReplicaSnapshot) []repository.ReplicaSnapshot {
	out := slices.Clone(rows)
	for i := range out {
		for _, h := range []*repository.HistView{&out[i].ServiceHist, &out[i].QueueHist, &out[i].GatewayHist} {
			h.Bins, h.Counts = slices.Clone(h.Bins), slices.Clone(h.Counts)
		}
	}
	return out
}

// sameRows reports the first row where got and want differ, or "".
func sameRows(got, want []repository.ReplicaSnapshot) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("row %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// scribbleHists writes garbage into every histogram bin and count the rows
// reference.
func scribbleHists(rows []repository.ReplicaSnapshot) {
	for i := range rows {
		for _, h := range []repository.HistView{rows[i].ServiceHist, rows[i].QueueHist, rows[i].GatewayHist} {
			for j := range h.Bins {
				h.Bins[j], h.Counts[j] = -7, -7
			}
		}
	}
}

// scribble rewrites everything a caller owns in its copy of the rows: the
// histogram contents, then every field.
func scribble(rows []repository.ReplicaSnapshot) {
	scribbleHists(rows)
	for i := range rows {
		rows[i] = repository.ReplicaSnapshot{ID: "scribbled", QueueLength: -1, HasHistory: !rows[i].HasHistory}
	}
}

// randomDigest is a one-entry digest batch for id and method with a few bins
// on each axis and a random age.
func randomDigest(rng *rand.Rand, seq uint64, id wire.ReplicaID, method string) wire.DigestSync {
	hist := func() (bins, counts []int64) {
		b := int64(rng.Intn(10))
		for n := 1 + rng.Intn(3); n > 0; n-- {
			bins, counts = append(bins, b), append(counts, int64(1+rng.Intn(2)))
			b += int64(1 + rng.Intn(5))
		}
		return bins, counts
	}
	d := wire.WindowDigest{Replica: id, Method: method, QueueLength: rng.Intn(4), AgeNanos: int64(rng.Intn(3000)) * int64(ms)}
	d.ServiceBins, d.ServiceCounts = hist()
	d.QueueBins, d.QueueCounts = hist()
	return wire.DigestSync{
		Client: "peer", Service: "svc", Seq: seq,
		ResolutionNanos: dist.DefaultResolution.Nanoseconds(),
		Digests:         []wire.WindowDigest{d},
	}
}

// TestSnapshotIntoMatchesSnapshot is the view's oracle: seeded interleavings
// of every mutation the repository takes — replies, perf reports, gateway
// delays (negative ones too), membership changes, health transitions,
// borrowed digests and in-flight accounting — and after each, for every
// method, SnapshotInto and SnapshotShared must equal a fresh Snapshot, the
// caller's rewrite of its copy (histogram contents included) must reach
// neither a copy into another buffer nor the next copy into its own, and every
// SnapshotShared slice held since an earlier step must still read as it did.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	universe := []wire.ReplicaID{"r0", "r1", "r2", "r3", "r4", "r5"}
	methods := []string{"", "m2"}
	type held struct {
		slice, was []repository.ReplicaSnapshot
		at         string
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		repo := repository.New(repository.WithGatewayHistory(1 + 2*int(seed%2)))
		repo.EnableLifecycle(repository.Lifecycle{WindowSize: 4, MinObservations: 2, ProbationSamples: 2})
		repo.SetMembership(universe[:4])
		now := time.Now()
		bufs := make([]repository.SnapshotBuf, len(methods))
		var kept []held
		perf := func() wire.PerfReport {
			return wire.PerfReport{
				ServiceTime: time.Duration(rng.Intn(20000)) * time.Microsecond,
				QueueDelay:  time.Duration(rng.Intn(8000)) * time.Microsecond,
				QueueLength: rng.Intn(4),
				CaughtUp:    rng.Intn(2) == 0,
				OrderedTail: uint64(rng.Intn(100)),
			}
		}
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(rng.Intn(50)) * ms)
			id := universe[rng.Intn(len(universe))]
			method := methods[rng.Intn(len(methods))]
			td := time.Duration(rng.Intn(6000)-1000) * time.Microsecond
			var what string
			switch op := rng.Intn(20); {
			case op < 6:
				what = "RecordReply"
				repo.RecordReply(id, method, perf(), td, now)
			case op < 8:
				what = "RecordPerf"
				repo.RecordPerf(id, method, perf(), now)
			case op < 10:
				what = "RecordGatewayDelay"
				repo.RecordGatewayDelay(id, td)
			case op < 11:
				what = "SetMembership"
				var members []wire.ReplicaID
				for _, m := range universe {
					if rng.Intn(3) != 0 {
						members = append(members, m)
					}
				}
				repo.SetMembership(members)
			case op < 12:
				what = "AddReplica"
				repo.AddReplica(id)
			case op < 13:
				what = "RemoveReplica"
				repo.RemoveReplica(id)
			case op < 15:
				what = "RecordOutcome"
				repo.RecordOutcome(id, rng.Intn(2) == 0)
			case op < 16:
				what = "Quarantine"
				repo.Quarantine(id)
			case op < 18:
				what = "AbsorbDigests"
				repo.AbsorbDigests(randomDigest(rng, uint64(step), id, method), now)
			default:
				what = "NoteDispatched/NoteSettled"
				repo.NoteDispatched(id)
				if rng.Intn(2) == 0 {
					repo.NoteSettled(id)
				}
			}
			for i, m := range methods {
				at := fmt.Sprintf("seed %d step %d (%s %s %q) method %q", seed, step, what, id, method, m)
				want := repo.Snapshot(m)
				rows := repo.SnapshotInto(m, &bufs[i])
				if diff := sameRows(rows, want); diff != "" {
					t.Fatalf("%s: SnapshotInto: %s", at, diff)
				}
				scribble(rows)
				if diff := sameRows(repo.SnapshotInto(m, &repository.SnapshotBuf{}), want); diff != "" {
					t.Fatalf("%s: SnapshotInto after the caller rewrote its copy: %s", at, diff)
				}
				shared := repo.SnapshotShared(m)
				if diff := sameRows(shared, want); diff != "" {
					t.Fatalf("%s: SnapshotShared: %s", at, diff)
				}
				if h := (held{slice: shared, was: deepCopy(shared), at: at}); len(kept) < 8 {
					kept = append(kept, h)
				} else if rng.Intn(8) == 0 {
					kept[rng.Intn(len(kept))] = h
				}
			}
			for _, h := range kept {
				if diff := sameRows(h.slice, h.was); diff != "" {
					t.Fatalf("seed %d step %d: the SnapshotShared slice taken at %s changed: %s", seed, step, h.at, diff)
				}
			}
		}
	}
}

// TestSnapshotIntoUnderConcurrentSchedulers runs decisions and replies from
// several goroutines against one repository while a reader holds
// SnapshotShared slices and copies the view with SnapshotInto; under -race
// this is the fence for the in-place refresh. Every held slice must keep its
// contents, and once the writers stop the view must equal a fresh Snapshot.
func TestSnapshotIntoUnderConcurrentSchedulers(t *testing.T) {
	repo := repository.New()
	ids := []wire.ReplicaID{"a", "b", "c", "d", "e"}
	now := time.Now()
	for i, id := range ids {
		repo.AddReplica(id)
		for j := 0; j < repository.DefaultWindowSize; j++ {
			repo.RecordReply(id, "", wire.PerfReport{ServiceTime: time.Duration(5+3*i) * ms, QueueDelay: ms}, ms, now)
		}
	}
	s, err := core.NewScheduler(core.Config{
		Service: "svc", QoS: wire.QoS{Deadline: 60 * ms, MinProbability: 0.95}, Repository: repo,
		Lifecycle: core.LifecycleConfig{Enabled: true}, StalenessBound: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	repo.Quarantine("c") // the scheduler's filter compacts its own copy

	const callers, perCaller = 4, 300
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				d, err := s.Schedule(now, "")
				if err != nil {
					t.Error(err)
					return
				}
				for k, id := range d.Targets {
					perf := wire.PerfReport{ServiceTime: time.Duration(4+(c+i+k)%9) * ms, QueueDelay: time.Duration((i+k)%3) * ms}
					s.OnReply(d.Seq, id, now.Add(perf.ServiceTime+perf.QueueDelay+time.Duration(k)*ms), perf)
				}
				d.Release()
			}
		}(c)
	}
	done := make(chan struct{})
	var kept [][2][]repository.ReplicaSnapshot
	var buf repository.SnapshotBuf
	go func() {
		defer close(done)
		for i := 0; i < perCaller; i++ {
			scribble(repo.SnapshotInto("", &buf))
			if i%10 == 0 {
				shared := repo.SnapshotShared("")
				kept = append(kept, [2][]repository.ReplicaSnapshot{shared, deepCopy(shared)})
			}
		}
	}()
	wg.Wait()
	<-done
	for i, k := range kept {
		if diff := sameRows(k[0], k[1]); diff != "" {
			t.Fatalf("held SnapshotShared slice %d changed: %s", i, diff)
		}
	}
	want := repo.Snapshot("")
	if diff := sameRows(repo.SnapshotInto("", &buf), want); diff != "" {
		t.Fatalf("SnapshotInto after the writers stopped: %s", diff)
	}
	if diff := sameRows(repo.SnapshotShared(""), want); diff != "" {
		t.Fatalf("SnapshotShared after the writers stopped: %s", diff)
	}
}

// TestSnapshotIntoCallerOwnsHistograms: a caller that writes garbage into
// every histogram it was handed and then compacts its rows, as
// selectableSnapshots does, damages nothing but its own copy — the next
// SnapshotInto on the same buffer equals Snapshot again, with no mutation in
// between to force a re-copy, and a second buffer's rows and a held
// SnapshotShared slice are unchanged.
func TestSnapshotIntoCallerOwnsHistograms(t *testing.T) {
	repo := repository.New(repository.WithGatewayHistory(3))
	ids := []wire.ReplicaID{"a", "b", "c", "d", "e"}
	now := time.Now()
	for i, id := range ids {
		repo.AddReplica(id)
		for j := 0; j < repository.DefaultWindowSize; j++ {
			perf := wire.PerfReport{ServiceTime: time.Duration(2+i+j) * ms, QueueDelay: time.Duration(j%3) * ms}
			repo.RecordReply(id, "", perf, time.Duration(1+j%2)*ms, now)
		}
	}
	repo.AddReplica("f") // empty windows

	var mine, other repository.SnapshotBuf
	otherRows := repo.SnapshotInto("", &other)
	otherWas := deepCopy(otherRows)
	shared := repo.SnapshotShared("")
	sharedWas := deepCopy(shared)
	want := repo.Snapshot("")

	for round := 0; round < 3; round++ {
		rows := repo.SnapshotInto("", &mine)
		if diff := sameRows(rows, want); diff != "" {
			t.Fatalf("round %d: SnapshotInto: %s", round, diff)
		}
		scribbleHists(rows)
		kept := rows[:0]
		for i := range rows {
			if i%2 == 1 {
				kept = append(kept, rows[i])
			}
		}
		kept[0].HasHistory = !kept[0].HasHistory
	}
	if diff := sameRows(repo.SnapshotInto("", &mine), want); diff != "" {
		t.Fatalf("SnapshotInto after the caller scribbled its histograms: %s", diff)
	}
	if diff := sameRows(otherRows, otherWas); diff != "" {
		t.Fatalf("another buffer's rows changed: %s", diff)
	}
	if diff := sameRows(shared, sharedWas); diff != "" {
		t.Fatalf("a held SnapshotShared slice changed: %s", diff)
	}
	if diff := sameRows(repo.Snapshot(""), want); diff != "" {
		t.Fatalf("the caller's writes reached the repository: %s", diff)
	}
}

// TestSnapshotIntoAllocs: once the caller's buffer has grown, copying the view
// after a reply allocates nothing — the touched row is re-exported into the
// view's own buffers and copied into the caller's, both in place. That holds
// for steady replies, which move no histogram bin, and for replies that move
// bins, once every buffer has held its largest histogram.
func TestSnapshotIntoAllocs(t *testing.T) {
	repo := repository.New()
	ids := []wire.ReplicaID{"a", "b", "c", "d"}
	now := time.Now()
	steady := wire.PerfReport{ServiceTime: 5 * ms, QueueDelay: ms}
	for _, id := range ids {
		repo.AddReplica(id)
		for j := 0; j < repository.DefaultWindowSize; j++ {
			repo.RecordReply(id, "", steady, ms, now)
		}
	}
	var buf repository.SnapshotBuf
	rows := repo.SnapshotInto("", &buf)
	before := rows[0].ServiceHist.Version
	turn := 0
	allocs := testing.AllocsPerRun(200, func() {
		turn++
		repo.RecordReply(ids[turn%len(ids)], "", steady, ms, now)
		rows = repo.SnapshotInto("", &buf)
	})
	if allocs != 0 {
		t.Fatalf("SnapshotInto after a steady reply allocates %.1f times, want 0", allocs)
	}
	if len(rows) != len(ids) || rows[0].ServiceHist.Version == before {
		t.Fatalf("the view was not refreshed: %d rows, version %d (was %d)", len(rows), rows[0].ServiceHist.Version, before)
	}

	moving := func() {
		turn++
		perf := wire.PerfReport{ServiceTime: time.Duration(1+turn%7) * ms, QueueDelay: time.Duration(turn%3) * ms}
		repo.RecordReply(ids[turn%len(ids)], "", perf, time.Duration(turn%5)*ms, now)
		rows = repo.SnapshotInto("", &buf)
	}
	for i := 0; i < 7*3*5*len(ids); i++ {
		moving()
	}
	before = rows[0].ServiceHist.Version
	if allocs := testing.AllocsPerRun(200, moving); allocs != 0 {
		t.Fatalf("SnapshotInto after a reply that moves bins allocates %.1f times once the buffers have grown, want 0", allocs)
	}
	if rows[0].ServiceHist.Version == before {
		t.Fatal("the view was not refreshed by the moving replies")
	}
	if diff := sameRows(rows, repo.Snapshot("")); diff != "" {
		t.Fatalf("SnapshotInto after the moving replies: %s", diff)
	}
}
