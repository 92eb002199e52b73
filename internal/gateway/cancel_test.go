package gateway

// End-to-end fences for first-response-wins cancellation and the adaptive
// redundancy controller: after the earliest reply is delivered, the losing
// replicas receive a Cancel and either purge the queued copy or abort the
// one in service — duplicate work stops, and the client-side accounting
// stays exact.

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"aqua/internal/core"
	"aqua/internal/metrics"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

func TestCancelOnFirstReplyStopsLosers(t *testing.T) {
	// One fast replica, two slow ones: the fast reply wins every race and
	// the slow copies are still queued or mid-service when the Cancel lands.
	f := newFixture(t, 1, stats.Constant{Delay: ms})
	for i := 1; i <= 2; i++ {
		id := wire.ReplicaID(fmt.Sprintf("slow%d", i))
		ep, err := f.net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc",
			Handler:   func(string, []byte) ([]byte, error) { return []byte("slow"), nil },
			LoadDelay: stats.Constant{Delay: 400 * ms},
			Seed:      int64(10 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		f.replicas[id] = srv
	}

	reg := metrics.NewRegistry()
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:      wire.QoS{Deadline: time.Second, MinProbability: 0.9},
		Strategy: selection.All{}, // always fan to all three
		Metrics:  reg,
	})

	// The first call meets cold losers: with no S or T history for them
	// there is nothing to judge a Cancel by, so both serve their copies and
	// the replies are harvested as duplicates.
	if _, err := h.Call(context.Background(), "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	cancels := reg.Counter(metrics.GatewayCancels)
	if got := cancels.Value(); got != 0 {
		t.Fatalf("cancels after the cold call = %d, want 0", got)
	}
	waitFor(t, 2*time.Second, func() bool { return h.Stats().Duplicates == 2 },
		"both slow copies of the cold call to be harvested")

	// From then on every call fans to 3 replicas and both slow losers are
	// cancelled. The winning reply reaches Call before the fan-out counts
	// its Cancels, so the last call's may still be on their way.
	const calls = 5
	for i := 1; i < calls; i++ {
		if _, err := h.Call(context.Background(), "m", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	const cancelled = 2 * (calls - 1)
	waitFor(t, 2*time.Second, func() bool { return cancels.Value() == cancelled },
		fmt.Sprintf("cancels sent to reach %d", cancelled))
	stopped := func() uint64 {
		var n uint64
		for id, r := range f.replicas {
			if id == "r0" {
				continue
			}
			purged, aborted, _ := r.CancelStats()
			n += purged + aborted
		}
		return n
	}
	waitFor(t, 2*time.Second, func() bool { return stopped() == cancelled },
		"losing replicas purged or aborted every cancelled copy")
	for id, r := range f.replicas {
		if id != "r0" && r.Served() != 1 {
			t.Errorf("%s served %d copies, want only the cold call's", id, r.Served())
		}
	}

	// The fast replica served everything; with serial calls every later
	// duplicate was still pending at the losers when the Cancel arrived, so
	// none of them burned a full service time.
	if served := f.replicas["r0"].Served(); served != calls {
		t.Errorf("winner served %d, want %d", served, calls)
	}
	// No pending entries leak: cancelled requests are discounted and their
	// silence at the deadline is not charged as a timing failure.
	if out := h.Scheduler().Outstanding(); out != 0 {
		t.Errorf("outstanding = %d, want 0", out)
	}
	if st := h.Stats(); st.TimingFailures != 0 {
		t.Errorf("timing failures = %d, want 0 (cancelled silence must not be charged)", st.TimingFailures)
	}
}

// TestControllerWiredThroughGateway checks Config.Controller reaches the
// scheduler's decision path: with the controller pinned at its floor, every
// budgeted selection obeys it.
func TestControllerWiredThroughGateway(t *testing.T) {
	f := newFixture(t, 5, stats.Constant{Delay: ms})
	ctrl := core.NewAdaptiveBudget(core.AdaptiveBudgetConfig{MaxK: 2})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:        wire.QoS{Deadline: time.Second, MinProbability: 0.99},
		Strategy:   selection.NewBudgeted(),
		Controller: ctrl,
	})
	// The cold start may fan to all 5; every later decision is budgeted at 2.
	for i := 0; i < 4; i++ {
		if _, err := h.Call(context.Background(), "m", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.SelectedTotal > 5+3*2 {
		t.Errorf("selected total = %d; controller budget (2) not applied", st.SelectedTotal)
	}
	if got := ctrl.Stats().Selected; got != st.SelectedTotal {
		t.Errorf("controller saw %d selections, scheduler %d", got, st.SelectedTotal)
	}
}

// TestZeroServiceLosersNotCancelled: replicas whose service takes no
// measurable time get no Cancel at |K| >= 2 — their service falls in the
// same 1 ms bin as the round trip, so a Cancel could not save work — and
// every duplicate is harvested.
func TestZeroServiceLosersNotCancelled(t *testing.T) {
	f := newFixture(t, 3, nil)
	reg := metrics.NewRegistry()
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:      wire.QoS{Deadline: time.Second, MinProbability: 0.9},
		Strategy: selection.All{},
		Metrics:  reg,
	})
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := h.Call(context.Background(), "m", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return h.Stats().Duplicates == 2*calls },
		"every duplicate to be harvested")
	if got := reg.Counter(metrics.GatewayCancels).Value(); got != 0 {
		t.Errorf("cancels sent = %d, want 0", got)
	}
	for id, r := range f.replicas {
		if purged, aborted, _ := r.CancelStats(); purged+aborted != 0 || r.Served() != calls {
			t.Errorf("%s: served %d, purged %d, aborted %d; want %d served", id, r.Served(), purged, aborted, calls)
		}
	}
}

// TestOrderedClientSendsNoCancel: an Ordered handler never cancels, even
// against warm slow losers: purging a stamped request would hole the apply
// sequence every replica must execute.
func TestOrderedClientSendsNoCancel(t *testing.T) {
	f := newFixture(t, 1, stats.Constant{Delay: ms})
	for i := 1; i <= 2; i++ {
		id := wire.ReplicaID(fmt.Sprintf("slow%d", i))
		ep, err := f.net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc",
			Handler:   func(string, []byte) ([]byte, error) { return []byte("slow"), nil },
			LoadDelay: stats.Constant{Delay: 20 * ms},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		f.replicas[id] = srv
	}
	reg := metrics.NewRegistry()
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:      wire.QoS{Deadline: time.Second, MinProbability: 0.9},
		Strategy: selection.All{},
		Ordered:  true,
		Metrics:  reg,
	})
	// The cold call warms the slow replicas; the later calls would cancel
	// them on an unordered handler.
	const calls = 4
	for i := 0; i < calls; i++ {
		if _, err := h.Call(context.Background(), "m", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitFor(t, 2*time.Second, func() bool { return h.Stats().Duplicates == 2 },
				"the cold call's slow copies to be harvested")
		}
	}
	waitFor(t, 2*time.Second, func() bool { return h.Stats().Duplicates == 2*calls },
		"every slow copy to be served and harvested")
	if got := reg.Counter(metrics.GatewayCancels).Value(); got != 0 {
		t.Errorf("cancels sent = %d, want 0", got)
	}
	for id, r := range f.replicas {
		if purged, aborted, _ := r.CancelStats(); purged+aborted != 0 {
			t.Errorf("%s purged %d and aborted %d copies, want none", id, purged, aborted)
		}
	}
}

// TestSlowedLinkLeavesKUnderCancellation: s0 serves in 10 ms and s1–s3 in
// 5 ms, all well inside the deadline, so every decision ranks s0 first and
// its copy loses to s1's. A fault injector then slows every message from the
// client to s0 past the deadline. The Cancel trails its request by a round
// trip, and s0 is still serving when it lands, so a cancelled copy reports
// nothing and s0's round-trip window keeps its fast sample. Because a replica
// cancelled on l consecutive selections is served on the next, the window
// still learns the slow link, and s0 leaves K within l + 2 decisions of the
// slowdown. Each call waits until every copy it did not cancel has replied,
// so each decision sees every reply of the one before.
//
// In the shared run a second client, whose only replica is s0 and whose link
// is not slowed, calls s0 before each of the first client's decisions, so s0
// pushes the first client a fresh performance report every time. Those
// reports must not restart the run of Cancels: they measure no round trip on
// the slowed link.
func TestSlowedLinkLeavesKUnderCancellation(t *testing.T) {
	t.Run("alone", func(t *testing.T) { testSlowedLink(t, false) })
	t.Run("shared", func(t *testing.T) { testSlowedLink(t, true) })
}

func testSlowedLink(t *testing.T, shared bool) {
	const (
		l      = repository.DefaultWindowSize
		slowed = 40 * ms
		victim = wire.ReplicaID("s0")
	)
	inmem := transport.NewInMem()
	t.Cleanup(func() { _ = inmem.Close() })
	inj := transport.NewInjector(3)
	net := transport.NewFaulty(inmem, inj)
	replicas := make(map[wire.ReplicaID]transport.Addr)
	for i := 0; i < 4; i++ {
		id := wire.ReplicaID(fmt.Sprintf("s%d", i))
		ep, err := net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		service := 5 * ms
		if id == victim {
			service = 10 * ms
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc",
			Handler:   func(string, []byte) ([]byte, error) { return []byte("ok"), nil },
			LoadDelay: stats.Constant{Delay: service},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		replicas[id] = srv.Addr()
	}
	handler := func(client string, static map[wire.ReplicaID]transport.Addr, reg *metrics.Registry, rec *trace.Recorder) *TimingFaultHandler {
		t.Helper()
		ep, err := net.Listen(transport.Addr("client:" + client))
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewTimingFaultHandler(ep, Config{
			Client: wire.ClientID(client), Service: "svc",
			QoS:            wire.QoS{Deadline: 25 * ms, MinProbability: 0.9},
			StaticReplicas: static,
			Metrics:        reg,
			Trace:          rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		return h
	}
	reg := metrics.NewRegistry()
	rec := trace.New()
	h := handler("slowed", replicas, reg, rec)
	var other *TimingFaultHandler
	if shared {
		other = handler("other", map[wire.ReplicaID]transport.Addr{victim: replicas[victim]}, nil, nil)
	}
	// push has the second client call s0 and waits until the report s0
	// publishes for that serve has reached the first client.
	push := func() {
		t.Helper()
		last := func() time.Time {
			snap, err := h.Scheduler().Repository().SnapshotOne(victim, "")
			if err != nil {
				t.Fatal(err)
			}
			return snap.LastUpdate
		}
		before := last()
		if _, err := other.Call(context.Background(), "", nil); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, func() bool { return last().After(before) }, "s0's pushed report")
	}
	call := func() []wire.ReplicaID {
		t.Helper()
		if other != nil {
			push()
		}
		if _, err := h.Call(context.Background(), "", nil); err != nil {
			t.Fatal(err)
		}
		// A request leaves the admission count once each of its copies
		// replied or was cancelled.
		waitFor(t, 2*time.Second, func() bool { return h.Scheduler().Outstanding() == 0 },
			"every uncancelled copy to reply")
		sched := rec.Filter(trace.KindSchedule)
		return sched[len(sched)-1].Targets
	}
	// The cold call fans to all four; the warm ones pick the same top pair.
	var targets []wire.ReplicaID
	for i := 0; i < 3; i++ {
		targets = call()
	}
	if !slices.Equal(targets, []wire.ReplicaID{victim, "s1"}) {
		t.Fatalf("warm decision picked %v, want [s0 s1]", targets)
	}
	inj.SetLink("client:slowed", replicas[victim], transport.FaultPolicy{Delay: stats.Constant{Delay: slowed}})
	cancels := reg.Counter(metrics.GatewayCancels)
	before := cancels.Value()
	for n := 1; ; n++ {
		if !slices.Contains(call(), victim) {
			t.Logf("%s left K at decision %d after the slowdown; %d cancels sent", victim, n, cancels.Value()-before)
			break
		}
		if n == l+2 {
			t.Fatalf("%s still in K %d decisions after its link slowed", victim, n)
		}
	}
	if cancels.Value() == before {
		t.Error("no Cancel was sent after the slowdown: the rule was not exercised")
	}
}
