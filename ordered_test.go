package aqua_test

// End-to-end tests of the ordered service mode through the public API:
// stamped calls against a stateful cluster, prefix agreement across replica
// state machines, and the full robustness loop — crash, Proteus replacement,
// state transfer, re-admission, gap refill.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aqua"
)

// appendSM is a state machine whose state IS the applied sequence, so the
// tests can assert prefix agreement directly.
type appendSM struct {
	mu  sync.Mutex
	ops []string
}

func (m *appendSM) Apply(method string, payload []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = append(m.ops, method+":"+string(payload))
	return []byte(fmt.Sprintf("ok-%d", len(m.ops))), nil
}

func (m *appendSM) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []byte(strings.Join(m.ops, "\n")), nil
}

func (m *appendSM) Restore(snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(snapshot) == 0 {
		m.ops = nil
		return nil
	}
	m.ops = strings.Split(string(snapshot), "\n")
	return nil
}

func (m *appendSM) history() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.ops...)
}

// smTracker mints one appendSM per replica and remembers them all.
type smTracker struct {
	mu  sync.Mutex
	sms []*appendSM
}

func (tr *smTracker) factory() aqua.StateMachine {
	sm := &appendSM{}
	tr.mu.Lock()
	tr.sms = append(tr.sms, sm)
	tr.mu.Unlock()
	return sm
}

func (tr *smTracker) all() []*appendSM {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*appendSM(nil), tr.sms...)
}

// assertPrefixAgreement checks that every machine's history is a prefix of
// the longest one (a crashed machine may be behind; none may diverge) and
// that at least want machines hold the full history of length total.
func assertPrefixAgreement(t *testing.T, sms []*appendSM, total, want int) {
	t.Helper()
	var longest []string
	for _, sm := range sms {
		if h := sm.history(); len(h) > len(longest) {
			longest = h
		}
	}
	if len(longest) != total {
		t.Errorf("longest history = %d ops, want %d", len(longest), total)
	}
	full := 0
	for i, sm := range sms {
		h := sm.history()
		for j, op := range h {
			if op != longest[j] {
				t.Fatalf("machine %d diverges at op %d: %q != %q", i, j, op, longest[j])
			}
		}
		if len(h) == len(longest) {
			full++
		}
	}
	if full < want {
		t.Errorf("%d machines hold the full history, want >= %d", full, want)
	}
}

func TestOrderedClusterPrefixAgreement(t *testing.T) {
	tr := &smTracker{}
	c := newTestCluster(t, 3, aqua.WithStateMachine(tr.factory))
	client, err := c.NewClient(aqua.ClientConfig{
		Name:     "ord1",
		QoS:      aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
		Strategy: aqua.AllSelection(),
		Ordered:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	const ops = 20
	for i := 0; i < ops; i++ {
		out, err := client.Call(ctx, "set", []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatalf("op %d: empty reply", i)
		}
	}
	if got := client.OrderedStats().StampsIssued; got != ops {
		t.Errorf("StampsIssued = %d, want %d", got, ops)
	}
	// With the All strategy every replica saw every stamp; all three must
	// converge on the identical full history.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, r := range c.Replicas() {
			if r.OrderedTail() == ops {
				done++
			}
		}
		if done == 3 {
			break
		}
		time.Sleep(5 * ms)
	}
	assertPrefixAgreement(t, tr.all(), ops, 3)
}

func TestOrderedCancelOnFirstReplyRejected(t *testing.T) {
	tr := &smTracker{}
	c := newTestCluster(t, 2, aqua.WithStateMachine(tr.factory))
	_, err := c.NewClient(aqua.ClientConfig{
		Name:               "bad",
		QoS:                aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
		Ordered:            true,
		CancelOnFirstReply: true,
	})
	if err == nil {
		t.Fatal("want error for Ordered + CancelOnFirstReply")
	}
}

// TestOrderedRestartStateTransferAndRejoin drives the full robustness loop:
// a replica of a stateful self-healing cluster crash-stops mid-history, the
// dependability manager boots a replacement, the replacement completes state
// transfer from a caught-up peer (the lifecycle gate holds it in probation
// until then), and after re-admission it is refilled up to the live history.
func TestOrderedRestartStateTransferAndRejoin(t *testing.T) {
	tr := &smTracker{}
	c := newTestCluster(t, 3,
		aqua.WithStateMachine(tr.factory),
		aqua.WithSelfHealing(),
		aqua.WithLifecycle(aqua.LifecycleConfig{ProbationSamples: 2}),
	)
	client, err := c.NewClient(aqua.ClientConfig{
		Name:          "ord2",
		QoS:           aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
		Strategy:      aqua.AllSelection(),
		Ordered:       true,
		ProbeInterval: 10 * ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	call := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := client.Call(ctx, "set", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	call(10)

	victim := c.Replicas()[0]
	if err := c.StopReplica(victim.ID()); err != nil {
		t.Fatal(err)
	}
	// The manager replaces the crashed replica; the replacement must finish
	// state transfer before it reports CaughtUp.
	var replacement *aqua.Replica
	deadline := time.Now().Add(5 * time.Second)
	for replacement == nil && time.Now().Before(deadline) {
		for _, r := range c.Replicas() {
			if r.ID() != victim.ID() && r.StateTransfers() > 0 && r.CaughtUp() {
				replacement = r
			}
		}
		time.Sleep(5 * ms)
	}
	if replacement == nil {
		t.Fatal("no replacement completed state transfer within 5s")
	}
	if replacement.OrderedTail() < 10 {
		t.Errorf("replacement OrderedTail = %d, want >= 10", replacement.OrderedTail())
	}

	// Keep calling; once probation re-admits the replacement it re-enters
	// selection, discovers its stamp gap, and is refilled to the live tail.
	total := uint64(10)
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && replacement.OrderedTail() <= 10 {
		if _, err := client.Call(ctx, "set", []byte(fmt.Sprintf("v%d", total))); err != nil {
			t.Fatal(err)
		}
		total++
		time.Sleep(5 * ms)
	}
	if got := replacement.OrderedTail(); got <= 10 {
		t.Fatalf("replacement never rejoined the ordered stream: tail %d after %d ops", got, total)
	}
	// Every machine's history must be a prefix of the longest; the crashed
	// one is allowed to be behind, at least the two survivors must be full.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, r := range c.Replicas() {
			if r.OrderedTail() == total {
				done++
			}
		}
		if done >= 2 {
			break
		}
		time.Sleep(5 * ms)
	}
	assertPrefixAgreement(t, tr.all(), int(total), 2)
}
