package sim

import (
	"testing"
	"time"

	"aqua/internal/selection"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/wire"
)

func paperScenario(seed int64, deadline time.Duration, pc float64) Scenario {
	replicas := make([]ReplicaSpec, 7)
	for i := range replicas {
		replicas[i] = ReplicaSpec{Service: stats.Normal{Mu: 100 * ms, Sigma: 50 * ms}}
	}
	return Scenario{
		Replicas: replicas,
		Clients: []ClientSpec{
			{QoS: wire.QoS{Deadline: 200 * ms, MinProbability: 0}, Requests: 50, Think: time.Second},
			{QoS: wire.QoS{Deadline: deadline, MinProbability: pc}, Requests: 50, Think: time.Second},
		},
		Network: NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
		Seed:    seed,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Scenario{}); err == nil {
		t.Error("want error for no replicas")
	}
	if _, err := Run(Scenario{Replicas: []ReplicaSpec{{Service: stats.Constant{}}}}); err == nil {
		t.Error("want error for no clients")
	}
	if _, err := Run(Scenario{
		Replicas: []ReplicaSpec{{}},
		Clients:  []ClientSpec{{QoS: wire.QoS{Deadline: ms}, Requests: 1}},
	}); err == nil {
		t.Error("want error for replica without distribution")
	}
	if _, err := Run(Scenario{
		Replicas: []ReplicaSpec{{Service: stats.Constant{}}},
		Clients:  []ClientSpec{{QoS: wire.QoS{Deadline: ms}, Requests: 0}},
	}); err == nil {
		t.Error("want error for client with zero requests")
	}
}

func TestRunCompletesAllRequests(t *testing.T) {
	res, err := Run(paperScenario(1, 150*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 2 {
		t.Fatalf("clients = %d", len(res.Clients))
	}
	for i, c := range res.Clients {
		if len(c.Records) != 50 {
			t.Errorf("client %d has %d records, want 50", i, len(c.Records))
		}
		if c.Stats.Requests != 50 {
			t.Errorf("client %d stats.Requests = %d", i, c.Stats.Requests)
		}
	}
	if res.TotalServed() < 100 {
		t.Errorf("TotalServed = %d, want >= 100 (each request served by >= 1 replica)", res.TotalServed())
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	a, err := Run(paperScenario(42, 120*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(paperScenario(42, 120*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.Clients {
		ra, rb := a.Clients[ci].Records, b.Clients[ci].Records
		if len(ra) != len(rb) {
			t.Fatalf("client %d record counts differ", ci)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("client %d record %d differs:\n%+v\n%+v", ci, i, ra[i], rb[i])
			}
		}
	}
	if a.Events != b.Events {
		t.Errorf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := Run(paperScenario(1, 120*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(paperScenario(2, 120*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Clients[1].Records {
		if a.Clients[1].Records[i].ResponseTime != b.Clients[1].Records[i].ResponseTime {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical response times")
	}
}

func TestColdStartSelectsAllReplicas(t *testing.T) {
	res, err := Run(paperScenario(3, 150*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Clients[0].Records[0]
	if !first.ColdStart {
		t.Error("first request not marked cold start")
	}
	if first.NumSelected != 7 {
		t.Errorf("first request selected %d, want all 7", first.NumSelected)
	}
}

func TestRedundancyDecreasesWithDeadline(t *testing.T) {
	short, err := Run(paperScenario(4, 100*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(paperScenario(4, 200*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	s, l := short.Clients[1].MeanSelected(), long.Clients[1].MeanSelected()
	if s <= l {
		t.Errorf("mean selected: deadline=100ms %.2f <= deadline=200ms %.2f; paper shows strictly more redundancy at tight deadlines", s, l)
	}
}

func TestRedundancyDecreasesWithLaxerProbability(t *testing.T) {
	strict, err := Run(paperScenario(5, 120*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	lax, err := Run(paperScenario(5, 120*ms, 0.0))
	if err != nil {
		t.Fatal(err)
	}
	s, l := strict.Clients[1].MeanSelected(), lax.Clients[1].MeanSelected()
	if s <= l {
		t.Errorf("mean selected: Pc=0.9 %.2f <= Pc=0 %.2f", s, l)
	}
}

func TestQoSHeldAcrossSweep(t *testing.T) {
	// The paper's core claim (Figure 5): observed failure probability stays
	// below 1-Pc. Test the tightest points of the sweep.
	for _, deadline := range []time.Duration{100 * ms, 140 * ms, 200 * ms} {
		res, err := Run(paperScenario(6, deadline, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		if fp := res.Clients[1].FailureProbability(); fp > 0.1 {
			t.Errorf("deadline %v: failure probability %.3f > tolerated 0.1", deadline, fp)
		}
	}
}

func TestFailureFloorAtPcZero(t *testing.T) {
	// With Pc=0 and the 2-replica floor, failures occur but the run
	// completes and every record is accounted.
	res, err := Run(paperScenario(7, 100*ms, 0))
	if err != nil {
		t.Fatal(err)
	}
	c2 := res.Clients[1]
	if c2.MeanSelected() > 2.5 {
		t.Errorf("Pc=0 mean selected %.2f, want close to the floor of 2", c2.MeanSelected())
	}
	if c2.FailureProbability() == 0 {
		t.Log("no failures at Pc=0; possible but unlikely — check the load model if persistent")
	}
}

func TestCrashMidRunStillMeetsQoS(t *testing.T) {
	sc := paperScenario(8, 140*ms, 0.9)
	sc.Replicas[0].CrashAt = 10 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	c2 := res.Clients[1]
	if fp := c2.FailureProbability(); fp > 0.1 {
		t.Errorf("failure probability %.3f > 0.1 despite Algorithm 1's crash reserve", fp)
	}
	// The crashed replica must stop serving.
	if res.ReplicaServe[0] >= res.ReplicaServe[1]+res.ReplicaServe[2] {
		t.Logf("replica serve counts: %v", res.ReplicaServe)
	}
}

func TestCrashAllSelectedGivesUpGracefully(t *testing.T) {
	// One replica, crashes mid-run: the client must not wedge; deadline
	// expiries count as failures and the give-up path resumes the loop.
	sc := Scenario{
		Replicas: []ReplicaSpec{{Service: stats.Constant{Delay: 10 * ms}, CrashAt: 2 * time.Second}},
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 100 * ms, MinProbability: 0},
			Requests: 10,
			Think:    500 * ms,
		}},
		Seed: 9,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clients[0]
	if len(c.Records) != 10 {
		t.Fatalf("records = %d, want 10 (no wedge)", len(c.Records))
	}
	var failures int
	for _, r := range c.Records {
		if r.Failure {
			failures++
		}
	}
	if failures == 0 {
		t.Error("no failures despite the only replica crashing")
	}
}

func TestSingleBestStrategyInSim(t *testing.T) {
	sc := paperScenario(10, 120*ms, 0.9)
	sc.Clients[1].Strategy = selection.SingleBest{}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	c2 := res.Clients[1]
	// Single-best sends to exactly 1 replica after warmup (first request
	// probes all 7).
	if got := c2.MeanSelected(); got > 1.2+6.0/50 {
		t.Errorf("single-best mean selected %.2f, want ~1", got)
	}
}

func TestNetworkSpikesIncreaseFailures(t *testing.T) {
	base := paperScenario(11, 120*ms, 0.0)
	spiky := paperScenario(11, 120*ms, 0.0)
	spiky.Network.SpikeProb = 0.3
	spiky.Network.Spike = stats.Constant{Delay: 80 * ms}

	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spiky)
	if err != nil {
		t.Fatal(err)
	}
	if b.Clients[1].FailureProbability() <= a.Clients[1].FailureProbability() {
		t.Errorf("spiky network failure %.3f <= calm %.3f",
			b.Clients[1].FailureProbability(), a.Clients[1].FailureProbability())
	}
}

func TestDetectionDelayPrunesCrashedFromSelection(t *testing.T) {
	sc := paperScenario(12, 140*ms, 0.9)
	sc.Replicas[0].CrashAt = 10 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// After detection, replica-00 must never serve again; its serve count
	// is far below the live replicas' (which serve ~45+ more seconds).
	crashed := res.ReplicaServe[0]
	for i := 1; i < len(res.ReplicaServe); i++ {
		if crashed > res.ReplicaServe[i]*2 {
			t.Errorf("crashed replica served %d vs live %d — pruning ineffective", crashed, res.ReplicaServe[i])
		}
	}
}

func TestMeanResponseTimeReported(t *testing.T) {
	res, err := Run(paperScenario(13, 150*ms, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	mrt := res.Clients[1].MeanResponseTime()
	// Service ~Normal(100ms, 50ms) with redundancy: the min of k draws sits
	// well under the mean but far above zero.
	if mrt < 20*ms || mrt > 160*ms {
		t.Errorf("mean response time %v outside plausible band", mrt)
	}
}

// answer is what one submitted copy got back: at stays -1 unless the copy
// completed and replied.
type answer struct {
	at   time.Duration
	perf wire.PerfReport
}

// submitAt submits the copy of request seq to r at virtual time at.
func submitAt(k *Kernel, r *Replica, at time.Duration, seq wire.SeqNo) *answer {
	a := &answer{at: -1}
	k.At(at, func() {
		r.submit(jobKey{client: "c", seq: seq}, func(p wire.PerfReport) { a.at, a.perf = k.Now(), p })
	})
	return a
}

// replicaWith builds a bare replica on k serving every copy in 10ms.
func replicaWith(k *Kernel, workers int) *Replica {
	return newReplica(k, "r", 0, ReplicaSpec{Service: stats.Constant{Delay: 10 * ms}, Workers: workers}, stats.NewRand(1))
}

func TestReplicaQueueModel(t *testing.T) {
	k := NewKernel()
	r := replicaWith(k, 1)
	// Three simultaneous arrivals: FIFO waits of 0, 10, 20ms, and a backlog
	// on arrival of 0, 1, 2. The fourth arrives as the third's service ends:
	// a worker finishing at the arrival instant is not backlog.
	got := []*answer{submitAt(k, r, 0, 1), submitAt(k, r, 0, 2), submitAt(k, r, 0, 3), submitAt(k, r, 30*ms, 4)}
	k.RunAll()
	for i, want := range []struct {
		done, wait time.Duration
		backlog    int
	}{{10 * ms, 0, 0}, {20 * ms, 10 * ms, 1}, {30 * ms, 20 * ms, 2}, {40 * ms, 0, 0}} {
		a := got[i]
		if a.at != want.done || a.perf.QueueDelay != want.wait || a.perf.QueueLength != want.backlog || a.perf.ServiceTime != 10*ms {
			t.Errorf("copy %d: done=%v perf=%+v; want done=%v wait=%v queue length %d", i+1, a.at, a.perf, want.done, want.wait, want.backlog)
		}
	}
	if r.served != 4 {
		t.Errorf("served = %d, want 4", r.served)
	}
}

func TestReplicaCrashSemantics(t *testing.T) {
	k := NewKernel()
	r := replicaWith(k, 1)
	k.At(15*ms, r.crash)
	done := submitAt(k, r, 0, 1)         // completes at 10ms, before the crash
	inService := submitAt(k, r, 5*ms, 2) // in service 10-20ms when the crash comes
	queued := submitAt(k, r, 6*ms, 3)    // still queued at the crash
	late := submitAt(k, r, 20*ms, 4)     // arrives after the crash
	k.RunAll()
	if done.at != 10*ms {
		t.Errorf("copy completing before the crash replied at %v, want 10ms", done.at)
	}
	for name, a := range map[string]*answer{"in service": inService, "queued": queued, "after the crash": late} {
		if a.at >= 0 {
			t.Errorf("copy %s replied at %v; a crashed replica answers nothing", name, a.at)
		}
	}
	if !r.crashed || r.served != 1 {
		t.Errorf("crashed = %v, served = %d; want true, 1", r.crashed, r.served)
	}
}

func TestMultiWorkerReplicaParallelism(t *testing.T) {
	k := NewKernel()
	r := replicaWith(k, 2)
	// Three simultaneous arrivals on two workers: two start immediately,
	// the third waits for the first free worker.
	a := []*answer{submitAt(k, r, 0, 1), submitAt(k, r, 0, 2), submitAt(k, r, 0, 3)}
	k.RunAll()
	if a[0].at != 10*ms || a[1].at != 10*ms {
		t.Errorf("first two completions %v, %v; want both 10ms", a[0].at, a[1].at)
	}
	if a[0].perf.QueueDelay != 0 || a[1].perf.QueueDelay != 0 {
		t.Errorf("first two waits %v, %v; want 0", a[0].perf.QueueDelay, a[1].perf.QueueDelay)
	}
	if a[2].at != 20*ms || a[2].perf.QueueDelay != 10*ms {
		t.Errorf("third: done=%v wait=%v; want 20ms, 10ms", a[2].at, a[2].perf.QueueDelay)
	}
}

// TestReplicaCancelFreesOneWorker: on two workers, a Cancel for a queued copy
// purges it, and a Cancel for a copy in service frees that worker alone: the
// next queued copy starts on it at once, and the other worker's copy runs to
// completion.
func TestReplicaCancelFreesOneWorker(t *testing.T) {
	k := NewKernel()
	r := replicaWith(k, 2)
	a := []*answer{submitAt(k, r, 0, 1), submitAt(k, r, 0, 2), submitAt(k, r, 0, 3), submitAt(k, r, 0, 4)}
	k.At(2*ms, func() { r.cancel(jobKey{client: "c", seq: 4}) })
	k.At(4*ms, func() { r.cancel(jobKey{client: "c", seq: 2}) })
	k.At(5*ms, func() { r.cancel(jobKey{client: "c", seq: 99}) }) // never seen: a no-op
	k.RunAll()
	if a[0].at != 10*ms {
		t.Errorf("untouched copy done at %v, want 10ms", a[0].at)
	}
	if a[1].at >= 0 || a[3].at >= 0 {
		t.Errorf("cancelled copies replied at %v and %v", a[1].at, a[3].at)
	}
	if a[2].at != 14*ms || a[2].perf.QueueDelay != 4*ms {
		t.Errorf("queued copy done=%v wait=%v; want 14ms, 4ms (started on the freed worker)", a[2].at, a[2].perf.QueueDelay)
	}
	if r.served != 2 || r.purged != 1 || r.aborted != 1 {
		t.Errorf("served, purged, aborted = %d, %d, %d; want 2, 1, 1", r.served, r.purged, r.aborted)
	}
}

func TestTraceRecordsRun(t *testing.T) {
	rec := trace.New()
	sc := paperScenario(20, 140*ms, 0.9)
	sc.Replicas[0].CrashAt = 10 * time.Second
	sc.Trace = rec
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sum := rec.Summarize()
	if sum.Requests != 100 {
		t.Errorf("trace requests = %d, want 100", sum.Requests)
	}
	if sum.Replies < sum.Requests {
		t.Errorf("trace replies %d < requests %d (redundancy must produce >= 1 reply/request)", sum.Replies, sum.Requests)
	}
	if got := len(rec.Filter(trace.KindMembership)); got != 1 {
		t.Errorf("membership events = %d, want 1 (the crash)", got)
	}
	// Trace-derived failures must match the result records.
	var recFailures int
	for _, c := range res.Clients {
		for _, r := range c.Records {
			if r.Failure && r.GotReply {
				recFailures++
			}
		}
	}
	if sum.Failures != recFailures {
		t.Errorf("trace failures %d != record failures %d", sum.Failures, recFailures)
	}
}

func TestOpenLoopWorkloadCompletes(t *testing.T) {
	replicas := make([]ReplicaSpec, 4)
	for i := range replicas {
		replicas[i] = ReplicaSpec{Service: stats.Normal{Mu: 30 * ms, Sigma: 10 * ms}}
	}
	res, err := Run(Scenario{
		Replicas: replicas,
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 100 * ms, MinProbability: 0.5},
			Requests: 40,
			Arrival:  stats.Exponential{MeanDelay: 50 * ms}, // Poisson arrivals
		}},
		Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Clients[0].Records); got != 40 {
		t.Fatalf("records = %d, want 40", got)
	}
}

func TestOpenLoopSaturationRaisesFailures(t *testing.T) {
	// Offered load beyond capacity must push queueing delay up and with it
	// timing failures — the regime the closed-loop protocol cannot reach.
	run := func(interArrival time.Duration) float64 {
		replicas := make([]ReplicaSpec, 3)
		for i := range replicas {
			replicas[i] = ReplicaSpec{Service: stats.Constant{Delay: 40 * ms}}
		}
		res, err := Run(Scenario{
			Replicas: replicas,
			Clients: []ClientSpec{{
				QoS:      wire.QoS{Deadline: 100 * ms, MinProbability: 0.9},
				Requests: 100,
				Arrival:  stats.Constant{Delay: interArrival},
			}},
			Seed: 22,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Clients[0].FailureProbability()
	}
	// Capacity: 3 replicas × 25 req/s = 75 req/s, but redundancy >= 2 means
	// effective capacity ~37 req/s. 10ms inter-arrival = 100 req/s drowns it.
	light := run(200 * ms)
	heavy := run(10 * ms)
	if heavy <= light {
		t.Errorf("saturation failure %.3f <= light-load %.3f", heavy, light)
	}
	if heavy < 0.3 {
		t.Errorf("saturated failure probability %.3f implausibly low", heavy)
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	mk := func() Scenario {
		replicas := make([]ReplicaSpec, 3)
		for i := range replicas {
			replicas[i] = ReplicaSpec{Service: stats.Normal{Mu: 30 * ms, Sigma: 10 * ms}}
		}
		return Scenario{
			Replicas: replicas,
			Clients: []ClientSpec{{
				QoS:      wire.QoS{Deadline: 100 * ms, MinProbability: 0.5},
				Requests: 30,
				Arrival:  stats.Exponential{MeanDelay: 40 * ms},
			}},
			Seed: 23,
		}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Clients[0].Records {
		if a.Clients[0].Records[i] != b.Clients[0].Records[i] {
			t.Fatalf("open-loop run not deterministic at record %d", i)
		}
	}
}
