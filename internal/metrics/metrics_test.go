package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c_total") != c {
		t.Error("get-or-create returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	// Nil instruments are safe no-ops so call sites need no guards.
	var nc *Counter
	nc.Inc()
	nc.Add(2)
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Error("nil instruments reported values")
	}
}

// TestHeldGaugeLastReleaseDeletes: a gauge taken with AcquireGauge stays in
// the registry, shared, while any holder does; the last ReleaseGauge deletes
// it, and a later acquire starts a fresh series.
func TestHeldGaugeLastReleaseDeletes(t *testing.T) {
	r := NewRegistry()
	a, b := r.AcquireGauge("depth"), r.AcquireGauge("depth")
	if a != b {
		t.Fatal("two holders of one name got different gauges")
	}
	a.Set(3)
	r.ReleaseGauge("depth")
	if v, ok := r.Snapshot().Gauges["depth"]; !ok || v != 3 {
		t.Fatalf("after one of two releases the series reads %d (present %v), want 3", v, ok)
	}
	r.ReleaseGauge("depth")
	if _, ok := r.Snapshot().Gauges["depth"]; ok {
		t.Fatal("the series outlived its last holder")
	}
	if g := r.AcquireGauge("depth"); g == a || g.Value() != 0 {
		t.Fatalf("a new holder got the released gauge (value %d)", g.Value())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 0.2, 0.5})
	for _, v := range []float64{0.05, 0.15, 0.15, 0.3, 0.9} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{1, 2, 1, 1} // ≤0.1, ≤0.2, ≤0.5, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-1.55) > 1e-9 {
		t.Errorf("sum = %v, want 1.55", s.Sum)
	}
	if math.Abs(s.Mean()-0.31) > 1e-9 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", []float64{1, 2, 4})
	// 10 observations uniform in (0,1], 10 in (1,2].
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	s := h.snapshot()
	if q := s.Quantile(0.5); math.Abs(q-1.0) > 1e-9 {
		t.Errorf("p50 = %v, want 1.0", q)
	}
	if q := s.Quantile(0.75); math.Abs(q-1.5) > 1e-9 {
		t.Errorf("p75 = %v, want 1.5", q)
	}
	if q := s.Quantile(1); math.Abs(q-2.0) > 1e-9 {
		t.Errorf("p100 = %v, want 2.0", q)
	}
	// Overflow saturates at the highest finite bound.
	h.Observe(100)
	if q := h.snapshot().Quantile(1); q != 4 {
		t.Errorf("overflow quantile = %v, want 4", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}

// TestConcurrentWriters exercises every instrument type from parallel
// goroutines; run under -race this is the registry's thread-safety fence.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := r.Counter("con_total")
			g := r.Gauge("con_gauge")
			h := r.Histogram("con_seconds", LatencyBuckets)
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%10) / 100)
				if j%100 == 0 {
					_ = r.Snapshot() // snapshots race against writers
				}
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("con_total") != workers*per {
		t.Errorf("counter = %d, want %d", s.Counter("con_total"), workers*per)
	}
	if s.Gauge("con_gauge") != workers*per {
		t.Errorf("gauge = %d", s.Gauge("con_gauge"))
	}
	h, ok := s.Histogram("con_seconds")
	if !ok || h.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*per)
	}
}

func TestLabelEscapingAndMerging(t *testing.T) {
	n := Label("m", "replica", `a"b\c`)
	if n != `m{replica="a\"b\\c"}` {
		t.Errorf("Label = %q", n)
	}
	n2 := Label(n, "method", "get")
	if n2 != `m{replica="a\"b\\c",method="get"}` {
		t.Errorf("merged Label = %q", n2)
	}
	base, labels := splitName(n2)
	if base != "m" || !strings.Contains(labels, "method") {
		t.Errorf("splitName = %q %q", base, labels)
	}
	if b, l := splitName("plain_total"); b != "plain_total" || l != "" {
		t.Errorf("splitName(plain) = %q %q", b, l)
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_total").Add(3)
	r.Gauge("j_gauge").Set(-2)
	r.Histogram("j_seconds", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if s.Counter("j_total") != 3 || s.Gauge("j_gauge") != -2 {
		t.Errorf("decoded snapshot = %+v", s)
	}
	h, ok := s.Histogram("j_seconds")
	if !ok || h.Count != 1 || len(h.Counts) != 2 {
		t.Errorf("decoded histogram = %+v", h)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("p_total").Add(7)
	r.Gauge("p_gauge").Set(3)
	h1 := r.Histogram(Label("p_seconds", "replica", "r1"), []float64{0.1, 1})
	h1.Observe(0.05)
	h1.Observe(0.5)
	r.Histogram(Label("p_seconds", "replica", "r2"), []float64{0.1, 1}).Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE p_total counter",
		"p_total 7",
		"# TYPE p_gauge gauge",
		"p_gauge 3",
		"# TYPE p_seconds histogram",
		`p_seconds_bucket{replica="r1",le="0.1"} 1`,
		`p_seconds_bucket{replica="r1",le="+Inf"} 2`,
		`p_seconds_sum{replica="r1"} 0.55`,
		`p_seconds_count{replica="r1"} 2`,
		`p_seconds_bucket{replica="r2",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family even with two labelled members.
	if strings.Count(out, "# TYPE p_seconds histogram") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_total").Add(11)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "http_total 11") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &s); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if s.Counter("http_total") != 11 {
		t.Errorf("/metrics.json counter = %d", s.Counter("http_total"))
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestOrDefault(t *testing.T) {
	if OrDefault(nil) != Default() {
		t.Error("OrDefault(nil) != Default()")
	}
	r := NewRegistry()
	if OrDefault(r) != r {
		t.Error("OrDefault(r) != r")
	}
}

// BenchmarkCounterInc asserts the counter hot path allocates nothing.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		b.Fatalf("Counter.Inc allocates %v per op", allocs)
	}
}

// BenchmarkHistogramObserve asserts the histogram observe path allocates
// nothing (it is on the per-reply path).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i%1000) * time.Microsecond)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.01) }); allocs != 0 {
		b.Fatalf("Histogram.Observe allocates %v per op", allocs)
	}
}
