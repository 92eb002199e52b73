package main

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aqua"
)

// errClass sorts a failed call by cause. The benchmark classifies failures;
// it repairs none of them in the program (see caller.do for the one it retries).
type errClass int

const (
	errRace       errClass = iota // core: dispatched unknown request (a reply beat Scheduler.Dispatched)
	errNoResponse                 // no reply within MaxWait
	errShed                       // refused by admission control
	errOverflow                   // refused by the generator's in-flight cap
	errWrongReply                 // reply failed verification
	errOther
	numErrClasses
)

var errClassNames = [numErrClasses]string{"dispatch_race", "no_response", "shed", "overflow", "wrong_reply", "other"}

func classify(err error) errClass {
	switch {
	case errors.Is(err, errWrongReplyBytes):
		return errWrongReply
	case errors.Is(err, aqua.ErrOverloaded):
		return errShed
	case strings.Contains(err.Error(), "dispatched unknown request"):
		return errRace
	case strings.Contains(err.Error(), "no response from"):
		return errNoResponse
	}
	return errOther
}

// failures counts failed calls per class and keeps one sample message each.
type failures struct {
	mu     sync.Mutex
	n      [numErrClasses]int
	sample [numErrClasses]string
}

func (f *failures) add(c errClass, msg string) {
	f.mu.Lock()
	if f.n[c] == 0 {
		f.sample[c] = msg
	}
	f.n[c]++
	f.mu.Unlock()
}

func (f *failures) total() int {
	t := 0
	for _, n := range f.n {
		t += n
	}
	return t
}

// window is what one measured window produced.
type window struct {
	elapsed    time.Duration
	attempted  int
	latNs      []int64 // successful calls only; open loop: from the due time
	callNs     []int64 // open loop only: the same calls from the moment they were sent
	timely     int
	fails      failures
	acks       []ack // ordered workloads: acknowledged writes
	lateNs     []int64
	sentInTime int           // open loop: calls sent before the window closed
	races      int           // calls that hit the Dispatched race, each retried (caller.do)
	held       time.Duration // closed loop: time the caller spent in hold
	t0         time.Time
	before     counters
	after      counters
}

// caller issues calls against one system and records their outcome.
type caller struct {
	w      workload
	sys    *system
	filler []byte
	lost   int64 // closed loop: frames hold has given up waiting for
}

// maxRaceRetries bounds how often one operation is sent again after the
// Dispatched race; an operation that loses the race every time is failed.
const maxRaceRetries = 3

// do makes one call with the given nonce and returns its reply check.
//
// The benchmark contract wants workloads on which no operation fails, and the
// known race — a reply beats Scheduler.Dispatched, Call returns "dispatched
// unknown request" although the replica served the request — loses a few calls
// in every 100 000 on the zero-service workloads. So the caller does what a
// real caller would: it waits a tick and sends the request again, under a
// nonce that marks the attempt, and the operation's latency covers it all. Each occurrence
// is counted (races) and reported as gateway.err_dispatch_race, so the PR that
// fixes the race can still show the count going to 0.
func (c *caller) do(nonce uint64) (a ack, races int, err error) {
	for {
		req := newRequest(c.filler, nonce|uint64(races)<<retryShift)
		reply, err := c.sys.call(req)
		if err != nil {
			if classify(err) != errRace {
				return ack{}, races, err
			}
			if races++; races > maxRaceRetries {
				return ack{}, races, err
			}
			// Races come in runs (one traced floor_tcp call lost four in a
			// row, where one in 100 000 loses any): whatever delays the
			// caller between its send and Dispatched lasts a while.
			time.Sleep(pacerTick)
			continue
		}
		if c.w.ordered {
			a, ok := checkAck(req, reply)
			if !ok {
				return ack{}, races, errWrongReplyBytes
			}
			return a, races, nil
		}
		if !checkEcho(req, reply) {
			return ack{}, races, errWrongReplyBytes
		}
		return ack{}, races, nil
	}
}

// nonceBase spaces the nonces of one run: 20 bits of seed hash above bit 42.
// Below sit the attempt number of a retried call (from bit retryShift) and a
// call counter; bit 62 marks warm traffic inside a loop and bit 63 the warm
// calls of set-up, so a measured nonce is never reused.
func nonceBase(seed int64) uint64 { return mix64(uint64(seed)) & 0xfffff << 42 }

const retryShift = 38

// hold keeps the closed-loop caller from outrunning the replicas. Algorithm 1
// always selects two of them and nothing cancels the copy that loses, so a
// caller that never pauses gets ahead of the slower replica without bound: its
// backlog grows until a queue overflows (a TCP send queue holds 256 frames, a
// receive queue 1024), frames are dropped, and now and then both copies of one
// request are among them — a call without a reply, and a failed operation the
// contract does not allow. So every holdEvery calls the caller looks at how
// far the replicas are behind (requests selected minus requests served, both
// read through the public API) and stands aside while that exceeds maxBacklog:
// it yields the processor to the replicas' goroutines, and sleeps once
// yielding has not helped. What calls_per_s then reports is the rate the
// system sustains without a growing backlog, and loadgen.held_frac the share
// of the window the caller stood aside.
func (c *caller) hold() (held time.Duration) {
	start := time.Now()
	for yields, idle := 0, 0; ; yields++ {
		sent, served := c.sys.progress()
		if int64(sent-served)-c.lost <= maxBacklog {
			if yields == 0 {
				return 0
			}
			return time.Since(start)
		}
		if yields < maxYields {
			runtime.Gosched() // the replicas' goroutines are runnable: let them run
			continue
		}
		time.Sleep(pacerTick)
		if _, after := c.sys.progress(); after != served {
			idle = 0
		} else if idle++; idle == lostAfterTicks {
			// Nothing was served for that long: what is still outstanding
			// was dropped on the way and never will be.
			c.lost = int64(sent - served)
		}
	}
}

// closedLoop is one caller that waits for each reply before it sends the next
// request: first for warm, unrecorded, then for measure. One caller, because
// its chain — caller, gateway, two replicas, receive loops — already keeps
// both cores busy; a second adds queueing in the Go scheduler and little
// throughput (README, "Closed loop").
func closedLoop(c *caller, seed int64, warm, measure time.Duration) *window {
	capHint := int(measure.Seconds()*150e3) + 1024 // untouched capacity costs no memory
	res := &window{latNs: make([]int64, 0, capHint)}
	if c.w.ordered {
		res.acks = make([]ack, 0, capHint)
	}
	nonce := nonceBase(seed)
	deadline := c.w.qos.Deadline

	for warmEnd := time.Now().Add(warm); time.Now().Before(warmEnd); {
		if nonce++; nonce%holdEvery == 0 {
			c.hold()
		}
		_, _, _ = c.do(nonce | 1<<62) // warm traffic: outcome not recorded
	}
	res.before = c.sys.snapshot()
	res.t0 = time.Now()
	for end := res.t0.Add(measure); ; {
		if nonce++; nonce%holdEvery == 0 {
			res.held += c.hold()
		}
		start := time.Now()
		if !start.Before(end) {
			break
		}
		a, races, err := c.do(nonce)
		lat := time.Since(start)
		res.attempted++
		res.races += races
		if err != nil {
			res.fails.add(classify(err), err.Error())
			continue
		}
		res.latNs = append(res.latNs, int64(lat))
		if lat <= deadline {
			res.timely++
		}
		if c.w.ordered {
			res.acks = append(res.acks, a)
		}
	}
	res.elapsed = time.Since(res.t0)
	res.after = c.sys.snapshot()
	res.sentInTime = res.attempted
	return res
}

// poissonArrivals draws n arrival offsets of a Poisson process over span,
// conditioned on exactly n arrivals (n+1 exponential gaps scaled to the
// span), so every seed offers the same number of calls at the same rate.
func poissonArrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	out := make([]time.Duration, n)
	at := 0.0
	for i := range out {
		at += gaps[i]
		out[i] = time.Duration(at / sum * float64(span))
	}
	return out
}

// openLoop sends calls on a Poisson schedule whatever the system does: one
// pacer goroutine sleeps to each due time (it never spins: a spinning pacer
// would take one of two cores from the system under test), sends late calls
// at once, and starts a goroutine per call. A call is timed from its due
// time, so a stall is charged to every call it delayed. The warm stretch runs
// the same process at the same rate and is not recorded.
func openLoop(c *caller, seed int64, warm, measure time.Duration) *window {
	rng := rand.New(rand.NewSource(seed))
	nWarm := int(math.Round(c.w.rate * warm.Seconds()))
	n := int(math.Round(c.w.rate * measure.Seconds()))
	if n < 1 {
		n = 1
	}
	dues := poissonArrivals(rng, nWarm, warm)
	for _, d := range poissonArrivals(rng, n, measure) {
		dues = append(dues, warm+d)
	}

	res := &window{attempted: n, lateNs: make([]int64, n)}
	latNs := make([]int64, n)  // -1: failed
	callNs := make([]int64, n) // Call's own duration, what the traced run's call span covers
	base := nonceBase(seed)
	deadline := c.w.qos.Deadline
	var inFlight, races atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	windowEnd := start.Add(warm + measure)
	for i, due := range dues {
		dueAt := start.Add(due)
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		m := i - nWarm // index within the measured window; negative while warming
		if m == 0 {
			res.before = c.sys.snapshot()
			res.t0 = start.Add(warm)
		}
		sent := time.Now()
		if m >= 0 {
			res.lateNs[m] = int64(sent.Sub(dueAt))
			if sent.Before(windowEnd) {
				res.sentInTime++
			}
		}
		if inFlight.Load() >= inFlightCap {
			if m >= 0 {
				latNs[m] = -1
				res.fails.add(errOverflow, "generator in-flight cap reached")
			}
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			nonce := base + uint64(i)
			if m < 0 {
				_, _, _ = c.do(nonce | 1<<62) // warm traffic: outcome not recorded
				return
			}
			_, n, err := c.do(nonce)
			races.Add(int64(n))
			if err != nil {
				latNs[m] = -1
				res.fails.add(classify(err), err.Error())
				return
			}
			latNs[m], callNs[m] = int64(time.Since(dueAt)), int64(time.Since(sent))
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(res.t0) // the window closes when the last offered call has returned
	res.after = c.sys.snapshot()
	res.races = int(races.Load())
	for m, l := range latNs {
		if l < 0 {
			continue
		}
		res.latNs = append(res.latNs, l)
		res.callNs = append(res.callNs, callNs[m])
		if time.Duration(l) <= deadline {
			res.timely++
		}
	}
	return res
}

// run drives one workload's loop for the given window.
func run(c *caller, seed int64, warm, measure time.Duration) *window {
	if c.w.closed {
		return closedLoop(c, seed, warm, measure)
	}
	return openLoop(c, seed, warm, measure)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues turns a measured window into the end-to-end metrics (all but
// setup_s, which the caller knows).
func (r *window) endToEndValues() values {
	us := nsToSortedUs(r.latNs)
	att := float64(r.attempted)
	b, a := &r.before, &r.after
	var served uint64
	for i := range a.served {
		served += a.served[i] - b.served[i]
	}
	return values{
		"calls_per_s":     float64(len(r.latNs)) / r.elapsed.Seconds(),
		"call_p50_us":     percentile(us, 0.50),
		"timely_frac":     float64(r.timely) / att,
		"mean_k":          ratio(float64(a.stats.SelectedTotal-b.stats.SelectedTotal), float64(a.stats.Requests-b.stats.Requests)),
		"served_per_call": float64(served) / att,
		"allocs_per_call": float64(a.mallocs-b.mallocs) / att,
		"bytes_per_call":  float64(a.bytes-b.bytes) / att,
		"cpu_us_per_call": float64((a.cpu - b.cpu).Microseconds()) / att,
	}
}

// Names of the instruments the counts are read from (the registry's own
// vocabulary, internal/metrics/names.go).
const (
	metFramesSent   = "aqua_transport_frames_sent_total"
	metEncodes      = "aqua_transport_encodes_total"
	metBackpressure = "aqua_transport_backpressure_drops_total"
	metCancelsSent  = "aqua_gateway_cancels_sent_total"
	metPurged       = "aqua_server_cancel_purged_total"
	metAborted      = "aqua_server_cancel_aborted_total"
	metPredicted    = "aqua_sched_predicted"
)

// countValues turns a measured window into the per-workload count metrics.
func (r *window) countValues() values {
	att := float64(r.attempted)
	b, a := &r.before, &r.after
	delta := func(before, after aqua.MetricsSnapshot, name string) float64 {
		return float64(after.Counter(name) - before.Counter(name))
	}
	var maxServed, sumServed float64
	for i := range a.served {
		d := float64(a.served[i] - b.served[i])
		sumServed += d
		maxServed = math.Max(maxServed, d)
	}
	pb, _ := b.reg.Histogram(metPredicted)
	pa, _ := a.reg.Histogram(metPredicted)
	predicted := ratio(pa.Sum-pb.Sum, float64(pa.Count-pb.Count))
	late := nsToSortedUs(r.lateNs)
	v := values{
		"transport.frames_per_call":     delta(b.reg, a.reg, metFramesSent) / att,
		"transport.encodes_per_call":    delta(b.reg, a.reg, metEncodes) / att,
		"transport.backpressure_drops":  delta(b.reg, a.reg, metBackpressure),
		"core.duplicates_per_call":      float64(a.stats.Duplicates-b.stats.Duplicates) / att,
		"core.used_all_share":           ratio(float64(a.stats.UsedAllCount-b.stats.UsedAllCount), float64(a.stats.Requests-b.stats.Requests)),
		"core.shed_share":               float64(r.fails.n[errShed]) / att,
		"core.predicted_mean":           predicted,
		"core.calibration_gap":          predicted - float64(r.timely)/att,
		"gateway.cancels_per_call":      delta(b.reg, a.reg, metCancelsSent) / att,
		"server.purged_per_call":        delta(b.def, a.def, metPurged) / att,
		"server.aborted_per_call":       delta(b.def, a.def, metAborted) / att,
		"server.served_max_over_mean":   ratio(maxServed*float64(len(a.served)), sumServed),
		"gateway.refills_per_call":      float64(a.refills-b.refills) / att,
		"gateway.err_dispatch_race":     float64(r.races),
		"gateway.err_no_response":       float64(r.fails.n[errNoResponse]),
		"gateway.err_wrong_reply":       float64(r.fails.n[errWrongReply]),
		"loadgen.late_p50_us":           0,
		"loadgen.late_p99_us":           0,
		"loadgen.achieved_over_offered": float64(r.sentInTime) / att,
		"loadgen.overflow":              float64(r.fails.n[errOverflow]),
		"loadgen.held_frac":             r.held.Seconds() / r.elapsed.Seconds(),
		"process.peak_rss_mb":           peakRSSMiB(),
	}
	if len(late) > 0 {
		v["loadgen.late_p50_us"] = percentile(late, 0.50)
		v["loadgen.late_p99_us"] = percentile(late, 0.99)
	}
	return v
}
