package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenTables lists every experiment whose output is a pure function of its
// seeds: each runs on the virtual-time simulator in full mode. fig3, e0,
// faults, a15 and a18's model check are left out because they run on wall
// time or over the real stack.
func goldenTables() []struct {
	id  string
	run func() (*Table, error)
} {
	fig45 := func(table func([]Fig45Row) *Table) func() (*Table, error) {
		return func() (*Table, error) {
			rows, err := RunFig45(DefaultFig45Config())
			if err != nil {
				return nil, err
			}
			return table(rows), nil
		}
	}
	return []struct {
		id  string
		run func() (*Table, error)
	}{
		{"fig4", fig45(Fig4Table)},
		{"fig5", fig45(Fig5Table)},
		{"v1", RunV1},
		{"a1", RunA1},
		{"a2", RunA2},
		{"a3", RunA3},
		{"a4", RunA4},
		{"a5", RunA5},
		{"a6", RunA6},
		{"a7", RunA7},
		{"a8", RunA8},
		{"a9", RunA9},
		{"a10", RunA10},
		{"a11", RunA11},
		{"a12", RunA12},
		{"a13", RunA13},
		{"a14", RunA14},
		{"a16", func() (*Table, error) { return RunA16(false) }},
		{"a17", RunA17},
		{"a18-soak", runA18SoakTable},
	}
}

// runA18SoakTable is a18's virtual-time recovery soak alone, in RunA18's
// columns; the model-check half runs the real stack and has no golden.
func runA18SoakTable() (*Table, error) {
	t := &Table{
		Title:   "A18 soak",
		Columns: []string{"config", "acked", "longest", "full", "transfers", "snap_restores", "ok"},
	}
	var fenceErr error
	fail := func(format string, args ...any) {
		if fenceErr == nil {
			fenceErr = fmt.Errorf("experiment: a18: "+format, args...)
		}
	}
	if err := runA18Soak(t, fail); err != nil {
		return nil, err
	}
	return t, fenceErr
}

// TestGoldenTables compares each seed-deterministic experiment's text table
// with testdata/golden/<id>.txt, so any change to what the simulator prints
// shows up as a diff of those files. `go test ./internal/experiment -run
// TestGoldenTables -update` rewrites them.
func TestGoldenTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which moves the last
		// digit of some floating-point cells.
		t.Skip("golden tables are recorded on amd64")
	}
	for _, g := range goldenTables() {
		t.Run(g.id, func(t *testing.T) {
			tab, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tab.WriteText(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", g.id+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from %s:\n--- got ---\n%s\n--- want ---\n%s", g.id, path, got.Bytes(), want)
			}
		})
	}
}
