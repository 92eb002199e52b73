package main

import (
	"os"
	"strings"
	"testing"

	"aqua/internal/experiment"
)

// TestRunnersQuick executes each fast experiment end to end through the CLI
// plumbing (csv path exercised too). The sim-heavy ones run in quick mode.
func TestRunnersQuick(t *testing.T) {
	for _, exp := range []string{"fig3", "a1", "a8", "a10", "a11"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp, false, true, false); err != nil {
				t.Fatalf("run(%q): %v", exp, err)
			}
		})
	}
	if err := run("fig3", true, true, false); err != nil {
		t.Fatalf("csv mode: %v", err)
	}
}

// TestRunFaultsSmoke runs the fault-injection experiment on a scaled-down
// configuration: the full CLI path would take tens of seconds (the passive
// baseline pays a failover timeout per slow attempt), so the smoke test keeps
// the shape — warmup, mid-run fault arming, three handlers — and shrinks the
// counts.
func TestRunFaultsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-cluster experiment is slow")
	}
	cfg := experiment.DefaultFaultsConfig()
	cfg.Replicas = 4
	cfg.SlowReplicas = 2
	cfg.Warmup = 5
	cfg.Requests = 15
	res, err := experiment.RunFaults(cfg)
	if err != nil {
		t.Fatalf("RunFaults: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (dynamic, single-best, passive)", len(res.Rows))
	}
	if res.Dropped == 0 && res.Delayed == 0 {
		t.Error("injector saw no faults; arming did not take effect")
	}
	for _, row := range res.Rows {
		if row.Requests != cfg.Requests {
			t.Errorf("%s measured %d requests, want %d", row.Handler, row.Requests, cfg.Requests)
		}
	}
	if err := experiment.FaultsTable(res).WriteText(os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", false, false, false); err == nil {
		t.Error("want error for unknown experiment")
	}
}

// TestRegistryFences pins what `make fences` (CI) covers: exactly a13..a18,
// a16 in quick mode, every id distinct.
func TestRegistryFences(t *testing.T) {
	seen := map[string]bool{}
	var fences, quick []string
	for _, e := range registry {
		if seen[e.id] || e.id == "all" || e.id == "fences" {
			t.Errorf("experiment id %q is duplicated or reserved", e.id)
		}
		seen[e.id] = true
		if e.fence {
			fences = append(fences, e.id)
		}
		if e.quickInFences {
			quick = append(quick, e.id)
		}
	}
	if got, want := strings.Join(fences, " "), "a13 a14 a15 a16 a17 a18"; got != want {
		t.Errorf("-exp fences runs %q, want %q", got, want)
	}
	if got := strings.Join(quick, " "); got != "a16" {
		t.Errorf("quick in fences: %q, want a16", got)
	}
}
