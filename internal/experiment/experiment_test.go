package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestTableWriteText(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "long_column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{
		Columns: []string{"x", "y"},
		Rows:    [][]string{{"1", "2"}},
	}
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "x,y\n1,2\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestRunFig3ShapeMatchesPaper(t *testing.T) {
	rows, err := RunFig3(Fig3Config{
		ReplicaCounts: []int{2, 8},
		WindowSizes:   []int{5, 20},
		Iterations:    100,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := make(map[[2]int]Fig3Row)
	for _, r := range rows {
		byKey[[2]int{r.WindowSize, r.Replicas}] = r
	}
	// Paper shape 1: overhead grows with the replica count.
	if byKey[[2]int{5, 8}].TotalOvhd <= byKey[[2]int{5, 2}].TotalOvhd {
		t.Errorf("overhead did not grow with n: n=2 %v, n=8 %v",
			byKey[[2]int{5, 2}].TotalOvhd, byKey[[2]int{5, 8}].TotalOvhd)
	}
	// Paper shape 2: overhead grows with the window size.
	if byKey[[2]int{20, 8}].TotalOvhd <= byKey[[2]int{5, 8}].TotalOvhd {
		t.Errorf("overhead did not grow with l: l=5 %v, l=20 %v",
			byKey[[2]int{5, 8}].TotalOvhd, byKey[[2]int{20, 8}].TotalOvhd)
	}
	// Paper shape 3: the distribution computation dominates (paper: ~90%).
	for k, r := range byKey {
		if r.DistFraction < 0.5 {
			t.Errorf("%v: distribution fraction %.2f, want dominant", k, r.DistFraction)
		}
	}
}

func TestRunFig3Validation(t *testing.T) {
	if _, err := RunFig3(Fig3Config{Iterations: 0}); err == nil {
		t.Error("want error for zero iterations")
	}
}

func TestFig3TableRendering(t *testing.T) {
	rows := []Fig3Row{{Replicas: 3, WindowSize: 5, TotalOvhd: 100 * time.Microsecond, DistOvhd: 90 * time.Microsecond, SelectOvhd: 10 * time.Microsecond, DistFraction: 0.9}}
	tab := Fig3Table(rows)
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "3" {
		t.Errorf("table = %+v", tab.Rows)
	}
}

// TestRunFig45PaperShape is the headline reproduction check: redundancy
// monotone trends and the QoS guarantee, on a reduced sweep so the test
// stays fast.
func TestRunFig45PaperShape(t *testing.T) {
	cfg := DefaultFig45Config()
	cfg.Deadlines = []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	cfg.Probabilities = []float64{0.9, 0.0}
	cfg.Runs = 2
	rows, err := RunFig45(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(dl time.Duration, pc float64) Fig45Row {
		for _, r := range rows {
			if r.Deadline == dl && r.Probability == pc {
				return r
			}
		}
		t.Fatalf("row (%v, %v) missing", dl, pc)
		return Fig45Row{}
	}
	// Figure 4 shapes.
	if !(get(100*time.Millisecond, 0.9).MeanSelected > get(200*time.Millisecond, 0.9).MeanSelected) {
		t.Error("redundancy did not decrease with deadline at Pc=0.9")
	}
	if !(get(100*time.Millisecond, 0.9).MeanSelected > get(100*time.Millisecond, 0.0).MeanSelected) {
		t.Error("redundancy did not decrease with laxer Pc at 100ms")
	}
	// Figure 5 guarantee: observed failures below 1-Pc.
	for _, r := range rows {
		if r.FailureProb > 1-r.Probability+1e-9 {
			t.Errorf("(%v, Pc=%.1f): failure %.3f > allowed %.2f",
				r.Deadline, r.Probability, r.FailureProb, 1-r.Probability)
		}
	}
	// Both figure tables render.
	if tab := Fig4Table(rows); len(tab.Rows) != 4 {
		t.Errorf("fig4 table rows = %d", len(tab.Rows))
	}
	if tab := Fig5Table(rows); len(tab.Rows) != 4 {
		t.Errorf("fig5 table rows = %d", len(tab.Rows))
	}
}

func TestRunE0InMem(t *testing.T) {
	res, err := RunE0(E0Config{Requests: 30, UseTCP: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Min <= 0 || res.Min > res.Mean || res.Mean > res.Max {
		t.Errorf("ordering broken: min=%v mean=%v max=%v", res.Min, res.Mean, res.Max)
	}
	if res.Min > 50*time.Millisecond {
		t.Errorf("in-memory floor %v implausibly high", res.Min)
	}
	if tab := E0Table(res); len(tab.Rows) != 1 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

func TestRunE0TCP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunE0(E0Config{Requests: 20, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != "tcp-loopback" {
		t.Errorf("transport = %q", res.Transport)
	}
}

func TestRunE0Validation(t *testing.T) {
	if _, err := RunE0(E0Config{Requests: 0}); err == nil {
		t.Error("want error for zero requests")
	}
}
