package aqua

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"aqua/internal/transport"
)

// listenHook runs hook once, on the first Listen, before delegating: a view
// change that lands while a client is being built.
type listenHook struct {
	transport.Network
	once sync.Once
	hook func()
}

func (n *listenHook) Listen(addr transport.Addr) (transport.Endpoint, error) {
	n.once.Do(n.hook)
	return n.Network.Listen(addr)
}

// TestNewClientSeesViewChangeDuringSetup: a replica stopped between the
// membership snapshot NewClient builds its handler from and the handler's
// registration for view changes must still leave the client's view.
func TestNewClientSeesViewChangeDuringSetup(t *testing.T) {
	c, err := NewCluster("svc", 3, func(string, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	victim := c.Replicas()[0].ID()
	c.network = &listenHook{Network: c.network, hook: func() {
		if err := c.StopReplica(victim); err != nil {
			t.Error(err)
		}
	}}

	client, err := c.NewClient(ClientConfig{Name: "racer", QoS: QoS{Deadline: 100 * time.Millisecond, MinProbability: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, id := range client.handler.Scheduler().Repository().Replicas() {
		if id == victim {
			t.Fatalf("the client still lists %s, stopped while the client was being built", victim)
		}
	}
}

// TestConcurrentViewChangesConverge: view changes made concurrently reach a
// client in any order, and the client must still end each round on the
// cluster's membership, never on an older view that lists a stopped replica.
func TestConcurrentViewChangesConverge(t *testing.T) {
	c, err := NewCluster("svc", 3, func(string, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client, err := c.NewClient(ClientConfig{Name: "watcher", QoS: QoS{Deadline: 100 * time.Millisecond, MinProbability: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const rounds, churners = 1000, 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < churners; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := c.AddReplica()
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.StopReplica(r.ID()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		var want []ReplicaID
		for _, r := range c.Replicas() {
			want = append(want, r.ID())
		}
		slices.Sort(want)
		if got := client.handler.Scheduler().Repository().Replicas(); !slices.Equal(got, want) {
			t.Fatalf("round %d: the client's view is %v, the cluster's is %v", round, got, want)
		}
	}
}

// TestAddReplicaJoinsService: a replica added to a running cluster receives
// every request an All-selection client makes after the join. A copy that
// lost its race may be cancelled once the newcomer has history, so what is
// counted is what it received: served, purged or aborted.
func TestAddReplicaJoinsService(t *testing.T) {
	const ms = time.Millisecond
	c, err := NewCluster("svc", 2, func(_ string, p []byte) ([]byte, error) { return p, nil },
		WithSimulatedLoad(5*ms, ms))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client, err := c.NewClient(ClientConfig{
		Name:     "t3",
		QoS:      QoS{Deadline: 300 * ms, MinProbability: 0.9},
		Strategy: AllSelection(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	if _, err := client.Call(ctx, "", nil); err != nil {
		t.Fatal(err)
	}
	r, err := c.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	received := func() uint64 {
		purged, aborted, _ := r.srv.CancelStats()
		return r.Served() + purged + aborted
	}
	deadline := time.Now().Add(time.Second)
	for received() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * ms)
	}
	if got := received(); got < 3 {
		t.Errorf("new replica received %d copies, want >= 3", got)
	}
}
