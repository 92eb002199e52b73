package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The smoke tests assert names, shapes and correctness checks only — never a
// timing — so tier-1 stays deterministic.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(v values) []string {
	out := make([]string, 0, len(v))
	for k := range v {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's own
// tables in step, and checks the contract's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 ||
		len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("counts outside 2-8 / 1-16 / 1-128: %d workloads, %d end-to-end, %d per-layer",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", f.RunSeconds)
	}
	gated := gatedWorkloads()
	if len(f.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(f.Workloads), len(gated))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, w.Name, gated[i].name)
		}
		if len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(what string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounded && g.Bound != w.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", what, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", g.Name, g.Unit)
			}
			if g.Better != lower && g.Better != higher {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestQuickFullCommand runs the probe stage and every workload, untraced and
// traced, for a fraction of a second each, and checks that the report holds
// exactly the metric names BENCHMARK.json lists, for every workload of the
// program (BENCHMARK.json lists the gated ones).
func TestQuickFullCommand(t *testing.T) {
	f := readBenchmarkFile(t)
	out := filepath.Join(t.TempDir(), "report.json")
	var log bytes.Buffer
	if err := runAll(options{seed: 1, procs: 2, repeat: 1, quick: true, out: out}, &log); err != nil {
		t.Fatalf("quick run: %v\n%s", err, log.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	// Every metric is measured exactly once: by the probe stage or by the
	// workload's own runs.
	every := names(append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...))
	var got []string
	for name, v := range rep.Workloads {
		got = append(got, name)
		measured := append(keys(v), keys(rep.Probe)...)
		sort.Strings(measured)
		sameNames(t, name+" metrics", measured, every)
	}
	sort.Strings(got)
	want := workloadNames()
	sort.Strings(want)
	sameNames(t, "workloads", got, want)
	for _, w := range workloads {
		if _, err := os.Stat(out + "." + w.name + ".spans.jsonl"); err != nil {
			t.Errorf("spans of %s: %v", w.name, err)
		}
	}
	if !strings.Contains(log.String(), "ordered state agrees") {
		t.Errorf("ordered_inmem did not report its end-of-run check:\n%s", log.String())
	}
}

// TestContractLines checks the last line of a single run, as the driver
// invokes it, for both values of -trace.
func TestContractLines(t *testing.T) {
	f := readBenchmarkFile(t)
	for trace, defs := range [][]metricDef{f.EndToEnd, f.PerLayer} {
		var buf bytes.Buffer
		o := options{workload: "paper_hi", seed: 7, seconds: 0.3, trace: trace, procs: 2, quick: true}
		if _, err := runOne(o, &buf); err != nil {
			t.Fatalf("trace %d: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		var top []string
		for k := range line {
			top = append(top, k)
		}
		sort.Strings(top)
		sameNames(t, "keys of the last line", top, []string{"attempted", "correct", "failed", "metrics"})
		var ms map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k, m := range ms {
			got = append(got, k)
			if m.Value == nil || m.Unit != unitOf(k) {
				t.Errorf("trace %d: metric %s lacks a value or carries unit %q", trace, k, m.Unit)
			}
		}
		sort.Strings(got)
		sameNames(t, "metrics of the last line", got, names(defs))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func write(nonce uint64) []byte {
	p := make([]byte, smallPayload)
	binary.LittleEndian.PutUint64(p, nonce)
	return p
}

// TestLogVerifyCatchesViolations feeds the end-of-run check a diverged
// replica and an acknowledgement no log contains.
func TestLogVerifyCatchesViolations(t *testing.T) {
	set := &logSet{}
	a, b, c := set.newMachine(), set.newMachine(), set.newMachine()
	var acks []ack
	for n := uint64(1); n <= 10; n++ {
		reply, err := a.Apply("", write(n))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := checkAck(write(n), reply)
		if !ok {
			t.Fatalf("write %d: reply fails its own check", n)
		}
		acks = append(acks, got)
		if n <= 6 { // b is a prefix of a
			if _, err := b.Apply("", write(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, err := a.Snapshot() // c catches up by state transfer
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := set.verify(acks); err != nil {
		t.Fatalf("consistent logs rejected: %v", err)
	}
	if _, err := set.verify(append(acks, ack{index: 11, chain: 1})); err == nil {
		t.Error("an acknowledged write beyond the longest log was accepted")
	}
	if _, err := b.Apply("", write(99)); err != nil { // b's 7th entry differs from a's
		t.Fatal(err)
	}
	if _, err := set.verify(acks); err == nil {
		t.Error("diverged logs were accepted")
	}
	if err := b.Restore(snap); err != nil { // a state transfer must not erase what b held before it
		t.Fatal(err)
	}
	if _, err := set.verify(acks); err == nil {
		t.Error("diverged logs were accepted once the diverged replica had been restored")
	}
}
