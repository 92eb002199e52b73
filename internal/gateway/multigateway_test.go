package gateway

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// multiFixture starts two distinct services (search, billing) with separate
// replica pools on one in-memory network.
type multiFixture struct {
	net      *transport.InMem
	services map[wire.Service]map[wire.ReplicaID]transport.Addr
}

func newMultiFixture(t *testing.T) *multiFixture {
	t.Helper()
	f := &multiFixture{
		net:      transport.NewInMem(),
		services: make(map[wire.Service]map[wire.ReplicaID]transport.Addr),
	}
	t.Cleanup(func() { _ = f.net.Close() })
	for _, svc := range []wire.Service{"search", "billing"} {
		f.services[svc] = make(map[wire.ReplicaID]transport.Addr)
		var load stats.DelayDist
		if svc == "billing" {
			load = stats.Constant{Delay: 40 * ms} // billing is slower
		}
		for i := 0; i < 3; i++ {
			id := wire.ReplicaID(fmt.Sprintf("%s-%d", svc, i))
			ep, err := f.net.Listen(transport.Addr(id))
			if err != nil {
				t.Fatal(err)
			}
			svcName := svc
			srv, err := server.Start(ep, server.Config{
				ID: id, Service: svc,
				Handler: func(method string, payload []byte) ([]byte, error) {
					return []byte(string(svcName) + ":" + method), nil
				},
				LoadDelay: load,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Stop)
			f.services[svc][id] = srv.Addr()
		}
	}
	return f
}

func TestMultiGatewayValidation(t *testing.T) {
	net := transport.NewInMem()
	t.Cleanup(func() { _ = net.Close() })
	ep, _ := net.Listen("mgv")
	if _, err := NewMultiGateway(ep, ""); err == nil {
		t.Error("want error for empty client ID")
	}
}

func TestMultiGatewayTwoServices(t *testing.T) {
	f := newMultiFixture(t)
	ep, err := f.net.Listen("client:mg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewMultiGateway(ep, "mg")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	for svc, replicas := range f.services {
		if _, err := g.LoadHandler(Config{
			Service:        svc,
			QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
			StaticReplicas: replicas,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(g.Services()); got != 2 {
		t.Fatalf("Services() = %d, want 2", got)
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		out, err := g.Call(ctx, "search", "q", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(out), "search:") {
			t.Errorf("search reply = %q", out)
		}
		out, err = g.Call(ctx, "billing", "charge", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(out), "billing:") {
			t.Errorf("billing reply = %q", out)
		}
	}

	// Each handler has its own repository, scoped to its own replicas —
	// "a repository local to a handler only caches information relevant to
	// the service associated with that handler" (§5.2).
	hSearch, _ := g.Handler("search")
	hBilling, _ := g.Handler("billing")
	for _, id := range hSearch.Scheduler().Repository().Replicas() {
		if !strings.HasPrefix(string(id), "search-") {
			t.Errorf("search repository holds %q", id)
		}
	}
	for _, id := range hBilling.Scheduler().Repository().Replicas() {
		if !strings.HasPrefix(string(id), "billing-") {
			t.Errorf("billing repository holds %q", id)
		}
	}
	// Both handlers made progress and track their own stats.
	if hSearch.Stats().Requests != 5 || hBilling.Stats().Requests != 5 {
		t.Errorf("stats: search=%d billing=%d, want 5 each",
			hSearch.Stats().Requests, hBilling.Stats().Requests)
	}
	// Billing (40ms servers) must show slower history than search.
	bSnap := hBilling.Scheduler().Repository().Snapshot("charge")
	for _, s := range bSnap {
		for _, b := range s.ServiceHist.Bins {
			if st := time.Duration(b) * ms; st < 30*ms {
				t.Errorf("billing service time %v implausibly fast", st)
			}
		}
	}
}

func TestMultiGatewayDuplicateLoad(t *testing.T) {
	f := newMultiFixture(t)
	ep, _ := f.net.Listen("client:mg2")
	g, err := NewMultiGateway(ep, "mg2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	cfg := Config{
		Service:        "search",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
		StaticReplicas: f.services["search"],
	}
	if _, err := g.LoadHandler(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := g.LoadHandler(cfg); err == nil {
		t.Error("want error for duplicate handler")
	}
	if _, err := g.LoadHandler(Config{}); err == nil {
		t.Error("want error for missing service")
	}
}

func TestMultiGatewayUnload(t *testing.T) {
	f := newMultiFixture(t)
	ep, _ := f.net.Listen("client:mg3")
	g, err := NewMultiGateway(ep, "mg3")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if _, err := g.LoadHandler(Config{
		Service:        "search",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
		StaticReplicas: f.services["search"],
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.UnloadHandler("search"); err != nil {
		t.Fatal(err)
	}
	if err := g.UnloadHandler("search"); err == nil {
		t.Error("want error unloading twice")
	}
	if _, err := g.Call(context.Background(), "search", "q", nil); err == nil {
		t.Error("want error calling unloaded service")
	}
	// Reload works.
	if _, err := g.LoadHandler(Config{
		Service:        "search",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
		StaticReplicas: f.services["search"],
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Call(context.Background(), "search", "q", nil); err != nil {
		t.Fatalf("call after reload: %v", err)
	}
}

func TestMultiGatewayClosedRejectsLoad(t *testing.T) {
	f := newMultiFixture(t)
	ep, _ := f.net.Listen("client:mg4")
	g, err := NewMultiGateway(ep, "mg4")
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close() // idempotent
	if _, err := g.LoadHandler(Config{
		Service:        "search",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
		StaticReplicas: f.services["search"],
	}); err == nil {
		t.Error("want error loading into closed gateway")
	}
}

func TestMultiGatewayCrashIsolation(t *testing.T) {
	// A crash in one service's pool must not disturb the other handler.
	f := newMultiFixture(t)
	ep, _ := f.net.Listen("client:mg5")
	g, err := NewMultiGateway(ep, "mg5")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	for svc, replicas := range f.services {
		if _, err := g.LoadHandler(Config{
			Service:        svc,
			QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.9},
			StaticReplicas: replicas,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := g.Call(ctx, "search", "q", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Call(ctx, "billing", "charge", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a search-pool membership change dropping one replica.
	h, _ := g.Handler("search")
	smaller := make(map[wire.ReplicaID]transport.Addr)
	for id, addr := range f.services["search"] {
		if id != "search-0" {
			smaller[id] = addr
		}
	}
	h.UpdateMembership(smaller)
	for i := 0; i < 3; i++ {
		if _, err := g.Call(ctx, "search", "q", nil); err != nil {
			t.Fatalf("search after prune: %v", err)
		}
		if _, err := g.Call(ctx, "billing", "charge", nil); err != nil {
			t.Fatalf("billing after search prune: %v", err)
		}
	}
	hb, _ := g.Handler("billing")
	if got := hb.Scheduler().Repository().Len(); got != 3 {
		t.Errorf("billing pool shrank to %d; cross-handler interference", got)
	}
}
