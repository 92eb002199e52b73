package group

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aqua/internal/transport"
	"aqua/internal/wire"
)

// fastCfg uses short detection intervals so the tests run quickly.
func fastCfg(role Role, self wire.ReplicaID, seeds []transport.Addr) Config {
	return Config{
		Group:             "svc",
		Role:              role,
		Self:              self,
		Seeds:             seeds,
		HeartbeatInterval: 5 * time.Millisecond,
		FailureTimeout:    30 * time.Millisecond,
	}
}

// pump drains an endpoint, routing heartbeats to the node, until stop is
// closed. Mirrors how the gateway/server own the receive loop.
func pump(t *testing.T, ep transport.Endpoint, n *Node, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for msg := range ep.Recv() {
			if hb, ok := msg.Payload.(wire.Heartbeat); ok {
				n.HandleHeartbeat(hb, msg.From, time.Now())
			}
		}
	}()
}

// waitView polls until cond holds for the node's current view.
func waitView(t *testing.T, n *Node, timeout time.Duration, cond func(View) bool) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := n.CurrentView()
		if cond(v) {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("view condition not met within %v; last view %+v", timeout, n.CurrentView())
	return View{}
}

func TestJoinValidation(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	ep, _ := net.Listen("x")
	if _, err := Join(ep, Config{Role: Member, Self: "a"}); err == nil {
		t.Error("want error for missing group name")
	}
	if _, err := Join(ep, Config{Group: "g", Self: "a"}); err == nil {
		t.Error("want error for missing role")
	}
	if _, err := Join(ep, Config{Group: "g", Role: Member}); err == nil {
		t.Error("want error for member without ID")
	}
}

func TestMemberSeesItselfImmediately(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	ep, _ := net.Listen("a")
	n, err := Join(ep, fastCfg(Member, "a", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Leave()
	v := n.CurrentView()
	if len(v.Members) != 1 || v.Members[0] != "a" {
		t.Errorf("initial view = %+v, want [a]", v)
	}
}

func TestTwoMembersConverge(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup

	epA, _ := net.Listen("addr-a")
	epB, _ := net.Listen("addr-b")
	a, err := Join(epA, fastCfg(Member, "a", []transport.Addr{"addr-b"}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Join(epB, fastCfg(Member, "b", []transport.Addr{"addr-a"}))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, epA, a, &wg)
	pump(t, epB, b, &wg)

	for _, n := range []*Node{a, b} {
		v := waitView(t, n, time.Second, func(v View) bool { return len(v.Members) == 2 })
		if v.Members[0] != "a" || v.Members[1] != "b" {
			t.Errorf("view members = %v, want sorted [a b]", v.Members)
		}
	}

	a.Leave()
	b.Leave()
	_ = epA.Close()
	_ = epB.Close()
	wg.Wait()
}

func TestObserverTracksMembersWithoutJoining(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup

	epM, _ := net.Listen("addr-m")
	epO, _ := net.Listen("addr-o")
	m, err := Join(epM, fastCfg(Member, "m", []transport.Addr{"addr-o"}))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Join(epO, fastCfg(Observer, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, epM, m, &wg)
	pump(t, epO, o, &wg)

	v := waitView(t, o, time.Second, func(v View) bool { return len(v.Members) == 1 })
	if v.Members[0] != "m" {
		t.Errorf("observer view = %v", v.Members)
	}
	if v.Contains("o") {
		t.Error("observer appeared in the membership")
	}
	if addr, ok := v.Addrs["m"]; !ok || addr != "addr-m" {
		t.Errorf("view address of m = %v, %v", addr, ok)
	}

	m.Leave()
	o.Leave()
	_ = epM.Close()
	_ = epO.Close()
	wg.Wait()
}

func TestCrashDetectionInstallsSmallerView(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup

	epM, _ := net.Listen("addr-m")
	epO, _ := net.Listen("addr-o")
	m, err := Join(epM, fastCfg(Member, "m", []transport.Addr{"addr-o"}))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Join(epO, fastCfg(Observer, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, epM, m, &wg)
	pump(t, epO, o, &wg)

	var mu sync.Mutex
	var changes []View
	o.OnViewChange(func(v View) {
		mu.Lock()
		changes = append(changes, v)
		mu.Unlock()
	})

	waitView(t, o, time.Second, func(v View) bool { return v.Contains("m") })

	// Crash the member: stop heartbeats and close its endpoint.
	m.Leave()
	_ = epM.Close()

	waitView(t, o, time.Second, func(v View) bool { return len(v.Members) == 0 })
	mu.Lock()
	last := changes[len(changes)-1]
	mu.Unlock()
	if len(last.Members) != 0 {
		t.Errorf("last view change = %+v, want empty", last)
	}
	if _, ok := o.CurrentView().Addrs["m"]; ok {
		t.Error("crashed member's address still in the view")
	}

	o.Leave()
	_ = epO.Close()
	wg.Wait()
}

func TestViewNumbersMonotone(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup

	epO, _ := net.Listen("addr-o")
	o, err := Join(epO, fastCfg(Observer, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var numbers []uint64
	o.OnViewChange(func(v View) {
		mu.Lock()
		numbers = append(numbers, v.Number)
		mu.Unlock()
	})
	pump(t, epO, o, &wg)

	// Three members come and go.
	for i := 0; i < 3; i++ {
		ep, _ := net.Listen(transport.Addr(fmt.Sprintf("addr-%d", i)))
		m, err := Join(ep, fastCfg(Member, wire.ReplicaID(fmt.Sprintf("m%d", i)), []transport.Addr{"addr-o"}))
		if err != nil {
			t.Fatal(err)
		}
		pump(t, ep, m, &wg)
		waitView(t, o, time.Second, func(v View) bool { return v.Contains(wire.ReplicaID(fmt.Sprintf("m%d", i))) })
		m.Leave()
		_ = ep.Close()
		waitView(t, o, time.Second, func(v View) bool { return len(v.Members) == 0 })
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(numbers); i++ {
		if numbers[i] <= numbers[i-1] {
			t.Fatalf("view numbers not increasing: %v", numbers)
		}
	}
	if len(numbers) < 6 {
		t.Errorf("expected >= 6 view changes, got %d (%v)", len(numbers), numbers)
	}

	o.Leave()
	_ = epO.Close()
	wg.Wait()
}

func TestHeartbeatForWrongGroupIgnored(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	ep, _ := net.Listen("addr-o")
	o, err := Join(ep, fastCfg(Observer, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Leave()
	o.HandleHeartbeat(wire.Heartbeat{From: "intruder", Service: "other-svc"}, "addr-x", time.Now())
	if v := o.CurrentView(); len(v.Members) != 0 {
		t.Errorf("foreign-group heartbeat installed member: %+v", v)
	}
}

func TestLeaveIdempotent(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	ep, _ := net.Listen("a")
	n, err := Join(ep, fastCfg(Member, "a", nil))
	if err != nil {
		t.Fatal(err)
	}
	n.Leave()
	n.Leave()
}

func TestMemberRejoinAfterCrash(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup

	epO, _ := net.Listen("addr-o")
	o, err := Join(epO, fastCfg(Observer, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, epO, o, &wg)

	start := func() (*Node, transport.Endpoint) {
		ep, err := net.Listen("addr-m")
		if err != nil {
			t.Fatal(err)
		}
		m, err := Join(ep, fastCfg(Member, "m", []transport.Addr{"addr-o"}))
		if err != nil {
			t.Fatal(err)
		}
		pump(t, ep, m, &wg)
		return m, ep
	}

	m1, ep1 := start()
	waitView(t, o, time.Second, func(v View) bool { return v.Contains("m") })
	m1.Leave()
	_ = ep1.Close()
	waitView(t, o, time.Second, func(v View) bool { return len(v.Members) == 0 })

	// The same identity rejoins (a Proteus restart); the observer must
	// re-install it.
	m2, ep2 := start()
	waitView(t, o, time.Second, func(v View) bool { return v.Contains("m") })

	m2.Leave()
	_ = ep2.Close()
	o.Leave()
	_ = epO.Close()
	wg.Wait()
}

func TestFailureDetectorStableUnderMessageLoss(t *testing.T) {
	// 30% heartbeat loss: with a 5ms interval and 30ms timeout, a member
	// is only suspected after ~6 consecutive losses (p ~ 0.1%), so the
	// view must stay stable while the member lives.
	inmem := transport.NewInMem()
	defer func() { _ = inmem.Close() }()
	inj := transport.NewInjector(17)
	inj.SetDefault(transport.FaultPolicy{DropProb: 0.3})
	net := transport.NewFaulty(inmem, inj)
	var wg sync.WaitGroup

	epM, _ := net.Listen("addr-m")
	epO, _ := net.Listen("addr-o")
	m, err := Join(epM, fastCfg(Member, "m", []transport.Addr{"addr-o"}))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Join(epO, fastCfg(Observer, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, epM, m, &wg)
	pump(t, epO, o, &wg)

	waitView(t, o, time.Second, func(v View) bool { return v.Contains("m") })

	// Count spurious removals over a settling period.
	var mu sync.Mutex
	removals := 0
	o.OnViewChange(func(v View) {
		mu.Lock()
		if !v.Contains("m") {
			removals++
		}
		mu.Unlock()
	})
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	got := removals
	mu.Unlock()
	if got > 1 {
		t.Errorf("member flapped out of the view %d times under 30%% loss", got)
	}
	if !o.CurrentView().Contains("m") {
		t.Error("live member missing from the final view")
	}

	m.Leave()
	o.Leave()
	_ = epM.Close()
	_ = epO.Close()
	wg.Wait()
}

// TestFenceAppliesInOrder: a view numbered at or below the last one applied
// is dropped, and installs never overlap.
func TestFenceAppliesInOrder(t *testing.T) {
	var f Fence
	var installed []uint64
	record := func(v View) { installed = append(installed, v.Number) }
	for _, n := range []uint64{1, 3, 2} {
		f.Apply(View{Number: n}, record)
	}
	if fmt.Sprint(installed) != "[1 3]" {
		t.Errorf("views 1, 3, 2 installed %v, want [1 3]", installed)
	}

	// Concurrent callers: install touches plain variables, so an overlap is a
	// data race under -race, and the numbers it sees must only rise.
	var g Fence
	var inside int
	var last uint64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := uint64(1); n <= 200; n++ {
				g.Apply(View{Number: n*8 - uint64(w)}, func(v View) {
					inside++
					if inside != 1 || v.Number <= last {
						t.Errorf("install of view %d overlapped or went back (inside %d, last %d)", v.Number, inside, last)
					}
					last = v.Number
					inside--
				})
			}
		}()
	}
	wg.Wait()
	if last != 200*8 {
		t.Errorf("last applied view %d, want %d", last, 200*8)
	}
}

// TestFencedListenerEndsOnCurrentView: a node notifies outside n.mu from its
// receive path (HandleHeartbeat) and its tick path (sweep), so two views can
// reach a listener in either order. Behind a Fence the listener ends on the
// node's current view.
func TestFencedListenerEndsOnCurrentView(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	ep, _ := net.Listen("addr-o")
	cfg := fastCfg(Observer, "", nil)
	cfg.HeartbeatInterval = time.Hour // the test drives sweep itself
	cfg.FailureTimeout = time.Millisecond
	o, err := Join(ep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Leave()
	var fence Fence
	var applied View
	o.OnViewChange(func(v View) {
		// A listener's own work before its install widens the window in
		// which a later view overtakes this one.
		time.Sleep(time.Duration(v.Number%2) * 20 * time.Microsecond)
		fence.Apply(v, func(v View) { applied = v })
	})

	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // receive path: members keep (re)joining
			defer wg.Done()
			for i := 0; i < 4; i++ {
				id := wire.ReplicaID(fmt.Sprintf("m%d", i))
				o.HandleHeartbeat(wire.Heartbeat{From: id, Service: "svc"}, transport.Addr("addr-"+id), time.Now())
			}
		}()
		go func() { // tick path: every member has timed out
			defer wg.Done()
			for i := 0; i < 4; i++ {
				o.sweep(time.Now().Add(time.Second))
			}
		}()
		wg.Wait()
		cur := o.CurrentView()
		if applied.Number != cur.Number || fmt.Sprint(applied.Members) != fmt.Sprint(cur.Members) {
			t.Fatalf("round %d: listener ended on view %d %v, the node is on view %d %v", round, applied.Number, applied.Members, cur.Number, cur.Members)
		}
	}
}

// TestNewAddressIsViewChange: a member heard at a new address installs a
// new view, since views carry the addresses handlers send to.
func TestNewAddressIsViewChange(t *testing.T) {
	net := transport.NewInMem()
	defer func() { _ = net.Close() }()
	ep, _ := net.Listen("addr-o")
	o, err := Join(ep, fastCfg(Observer, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Leave()
	hb := wire.Heartbeat{From: "m", Service: "svc"}
	o.HandleHeartbeat(hb, "addr-1", time.Now())
	o.HandleHeartbeat(hb, "addr-1", time.Now())
	if v := o.CurrentView(); v.Number != 1 || v.Addrs["m"] != "addr-1" {
		t.Fatalf("view %d %v after two heartbeats from one address, want 1 [m:addr-1]", v.Number, v.Addrs)
	}
	o.HandleHeartbeat(hb, "addr-2", time.Now())
	if v := o.CurrentView(); v.Number != 2 || v.Addrs["m"] != "addr-2" {
		t.Errorf("view %d %v after m moved, want 2 [m:addr-2]", v.Number, v.Addrs)
	}
}
