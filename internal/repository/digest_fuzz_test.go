package repository

import (
	"reflect"
	"testing"
	"time"

	"aqua/internal/dist"
	"aqua/internal/window"
	"aqua/internal/wire"
)

// fuzzProgram reads a fuzzer's bytes as a stream of small operands; past the
// end it reads zeros.
type fuzzProgram []byte

func (p *fuzzProgram) byte() byte {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return b
}

// dur is a signed duration in half-millisecond steps, so samples land off
// bin centres and below zero.
func (p *fuzzProgram) dur() time.Duration {
	return time.Duration(int8(p.byte())) * 500 * time.Microsecond
}

// hist is a wire histogram as a peer might send it: up to three bins, counts
// that may be zero, negative or far above any window, and now and then as
// many counts as bins.
func (p *fuzzProgram) hist() (bins, counts []int64) {
	b := p.byte()
	nb, nc := int(b%4), int(b%4)
	if b&0x80 != 0 {
		nc = int(b>>2) % 4
	}
	for range nb {
		bins = append(bins, int64(int8(p.byte())))
	}
	for range nc {
		counts = append(counts, int64(int8(p.byte()))<<(p.byte()%12))
	}
	return bins, counts
}

// FuzzAbsorbDigests feeds a repository arbitrary digest batches, the one
// input a gateway takes from its peers, interleaved with local reports and
// gateway delays, and checks the windows after every step. An absorption
// must leave every T window as it was.
func FuzzAbsorbDigests(f *testing.F) {
	f.Add(uint8(5), uint8(1), []byte{0, 0, 0, 10, 1, 1, 3, 10, 5, 0, 1, 2, 5, 0, 1, 3, 1, 0, 20, 4, 3, 0, 2, 250})
	f.Add(uint8(2), uint8(3), []byte{1, 1, 0, 0, 7, 0, 2, 200, 1, 4, 255, 3, 2, 9, 9, 11, 1, 4, 130, 1, 1, 2, 6})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, l, hist uint8, prog []byte) {
		repo := New(WithWindowSize(1+int(l%32)), WithGatewayHistory(1+int(hist%4)))
		repo.SetMembership([]wire.ReplicaID{"r0", "r1"})
		now := time.Unix(1_000_000, 0)
		in := fuzzProgram(prog)
		// A step may expand a digest to 2^16 samples; a cap on the steps keeps
		// one input fast however long the fuzzer grows it.
		for step := 0; step < 64 && len(in) > 0; step++ {
			now = now.Add(time.Duration(in.byte()) * time.Millisecond)
			op := in.byte()
			id := []wire.ReplicaID{"r0", "r1", "ghost"}[op%3]
			method := []string{"", "m"}[op>>2%2]
			switch op >> 3 % 3 {
			case 0:
				sync := wire.DigestSync{ResolutionNanos: int64(int8(in.byte())) * 100_000, Seq: uint64(in.byte())}
				for n := in.byte() % 3; n > 0; n-- {
					d := wire.WindowDigest{Replica: id, Method: method, QueueLength: int(in.byte())}
					d.AgeNanos = int64(int8(in.byte())) * int64(time.Millisecond)
					d.ServiceBins, d.ServiceCounts = in.hist()
					d.QueueBins, d.QueueCounts = in.hist()
					sync.Digests = append(sync.Digests, d)
				}
				before := gatewayWindows(repo)
				repo.AbsorbDigests(sync, now)
				if after := gatewayWindows(repo); !reflect.DeepEqual(before, after) {
					t.Fatalf("AbsorbDigests rewrote T windows %v into %v", before, after)
				}
			case 1:
				repo.RecordPerf(id, method, perf(in.dur(), in.dur(), 0), now)
			default:
				repo.RecordGatewayDelay(id, in.dur())
			}
			checkWindows(t, repo, now)
		}
	})
}

// gatewayWindows returns every replica's T window contents.
func gatewayWindows(r *Repository) map[wire.ReplicaID][]time.Duration {
	out := make(map[wire.ReplicaID][]time.Duration, len(r.replicas))
	for id, st := range r.replicas {
		out[id] = st.gateway.Values()
	}
	return out
}

// checkWindows asserts the invariants of borrowed samples living in the S
// and W windows: no window above its size, borrowed counts within the
// window, exports of exactly the local samples, and snapshots that are the
// windows' own histograms, T's included.
func checkWindows(t *testing.T, r *Repository, now time.Time) {
	t.Helper()
	exported := make(map[methodKey]wire.WindowDigest)
	for _, d := range r.ExportDigests(now) {
		exported[methodKey{replica: d.Replica, method: d.Method}] = d
	}
	withLocal := 0
	for k, e := range r.entries {
		st := r.replicas[k.replica]
		snap, err := r.SnapshotOne(k.replica, k.method)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := exported[k]
		local := e.service.Len() - e.borrowedS + e.queue.Len() - e.borrowedQ
		if local > 0 {
			withLocal++
		}
		if ok != (local > 0) {
			t.Fatalf("%v: exported %v with %d local samples", k, ok, local)
		}
		for _, a := range []struct {
			name     string
			w        *window.Window
			borrowed int
			view     HistView
			counts   []int64
		}{
			{"S", e.service, e.borrowedS, snap.ServiceHist, d.ServiceCounts},
			{"W", e.queue, e.borrowedQ, snap.QueueHist, d.QueueCounts},
		} {
			if n := a.w.Len(); n > r.windowSize || a.borrowed < 0 || a.borrowed > n {
				t.Fatalf("%v %s: %d samples, %d borrowed, window size %d", k, a.name, n, a.borrowed, r.windowSize)
			}
			if ok && sum(a.counts) != int64(a.w.Len()-a.borrowed) {
				t.Fatalf("%v %s: exported %d samples, window holds %d local", k, a.name, sum(a.counts), a.w.Len()-a.borrowed)
			}
			checkView(t, a.name, a.view, a.w.Values())
		}
		if n := st.gateway.Len(); n > r.gatewayHist {
			t.Fatalf("%v T: %d samples, window size %d", k, n, r.gatewayHist)
		}
		checkView(t, "T", snap.GatewayHist, st.gateway.Values())
	}
	if withLocal != len(exported) {
		t.Fatalf("exported %d digests for %d entries with local samples", len(exported), withLocal)
	}
}

// checkView asserts that a snapshot's view is dist.FromSamples of vals.
func checkView(t *testing.T, name string, view HistView, vals []time.Duration) {
	t.Helper()
	if len(vals) == 0 {
		if view.OK() {
			t.Fatalf("%s: view %+v of an empty window", name, view)
		}
		return
	}
	want, err := dist.FromSamples(vals, resolution)
	if err != nil {
		t.Fatal(err)
	}
	got := &dist.PMF{}
	if err := got.SetCounts(resolution, view.Bins, view.Counts); err != nil {
		t.Fatalf("%s: view %+v: %v", name, view, err)
	}
	wv, wp := want.Points()
	gv, gp := got.Points()
	if !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(wp, gp) {
		t.Fatalf("%s: view pmf %v %v, want %v %v", name, gv, gp, wv, wp)
	}
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}
