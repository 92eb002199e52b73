// Command aqua-exp regenerates the paper's evaluation results and the
// ablation studies listed in DESIGN.md.
//
// Usage:
//
//	aqua-exp -exp all            # every experiment
//	aqua-exp -exp fig4           # one experiment: e0 fig3 fig4 fig5 faults v1 a1..a18
//	aqua-exp -exp fig5 -csv      # machine-readable output
//	aqua-exp -exp fig3 -quick    # reduced iteration counts
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aqua/internal/experiment"
	"aqua/internal/metrics"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment id: e0, fig3, fig4, fig5, faults, v1, a1..a18, or all")
		csv          = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot         = flag.Bool("plot", false, "also render ASCII charts for fig4/fig5")
		quick        = flag.Bool("quick", false, "reduced iterations/runs for a fast pass")
		metricsAddr  = flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (\":0\" picks a free port): Prometheus text at /metrics, JSON at /metrics.json, pprof under /debug/pprof/")
		metricsEvery = flag.Duration("metrics-every", 0, "periodically dump a metrics snapshot as JSON to stderr (0 = off)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		srv, err := metrics.Serve(*metricsAddr, metrics.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "aqua-exp: metrics server:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "aqua-exp: metrics on http://%s/metrics\n", srv.Addr())
	}
	if *metricsEvery > 0 {
		stop := startMetricsDumper(*metricsEvery)
		defer stop()
	}

	if err := run(strings.ToLower(*exp), *csv, *quick, *plot); err != nil {
		fmt.Fprintln(os.Stderr, "aqua-exp:", err)
		os.Exit(1)
	}
}

// startMetricsDumper writes the default registry to stderr every interval,
// and once more on stop, so long runs leave a metrics trail even when no one
// scrapes the HTTP endpoint.
func startMetricsDumper(every time.Duration) (stop func()) {
	dump := func() {
		fmt.Fprintf(os.Stderr, "aqua-exp: metrics @ %s\n", time.Now().Format(time.RFC3339))
		_ = metrics.Default().WriteJSON(os.Stderr)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				dump()
			case <-done:
				dump()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func run(exp string, csv, quick, plot bool) error {
	emit := func(t *experiment.Table) error {
		if csv {
			return t.WriteCSV(os.Stdout)
		}
		if err := t.WriteText(os.Stdout); err != nil {
			return err
		}
		_, err := fmt.Println()
		return err
	}

	runners := map[string]func() error{
		"e0": func() error {
			cfg := experiment.DefaultE0Config()
			if quick {
				cfg.Requests = 50
			}
			res, err := experiment.RunE0(cfg)
			if err != nil {
				return err
			}
			return emit(experiment.E0Table(res))
		},
		"fig3": func() error {
			cfg := experiment.DefaultFig3Config()
			if quick {
				cfg.Iterations = 30
			}
			rows, err := experiment.RunFig3(cfg)
			if err != nil {
				return err
			}
			return emit(experiment.Fig3Table(rows))
		},
		"fig4": func() error {
			rows, err := runFig45(quick)
			if err != nil {
				return err
			}
			if err := emit(experiment.Fig4Table(rows)); err != nil {
				return err
			}
			if plot {
				return experiment.Fig4Plot(rows).Render(os.Stdout)
			}
			return nil
		},
		"fig5": func() error {
			rows, err := runFig45(quick)
			if err != nil {
				return err
			}
			if err := emit(experiment.Fig5Table(rows)); err != nil {
				return err
			}
			if plot {
				return experiment.Fig5Plot(rows).Render(os.Stdout)
			}
			return nil
		},
		"faults": func() error {
			cfg := experiment.DefaultFaultsConfig()
			if quick {
				cfg.Warmup = 15
				cfg.Requests = 40
			}
			res, err := experiment.RunFaults(cfg)
			if err != nil {
				return err
			}
			return emit(experiment.FaultsTable(res))
		},
		"a1":  tableRunner(experiment.RunA1, emit),
		"a2":  tableRunner(experiment.RunA2, emit),
		"a3":  tableRunner(experiment.RunA3, emit),
		"a4":  tableRunner(experiment.RunA4, emit),
		"a5":  tableRunner(experiment.RunA5, emit),
		"a6":  tableRunner(experiment.RunA6, emit),
		"a7":  tableRunner(experiment.RunA7, emit),
		"a8":  tableRunner(experiment.RunA8, emit),
		"a9":  tableRunner(experiment.RunA9, emit),
		"a10": tableRunner(experiment.RunA10, emit),
		"a11": tableRunner(experiment.RunA11, emit),
		"a12": tableRunner(experiment.RunA12, emit),
		"a13": tableRunner(experiment.RunA13, emit),
		"a14": tableRunner(experiment.RunA14, emit),
		"a15": tableRunner(func() (*experiment.Table, error) { return experiment.RunA15(quick) }, emit),
		"a16": tableRunner(func() (*experiment.Table, error) { return experiment.RunA16(quick) }, emit),
		"a17": tableRunner(experiment.RunA17, emit),
		"a18": tableRunner(experiment.RunA18, emit),
		"v1":  tableRunner(experiment.RunV1, emit),
	}

	if exp == "all" {
		// fig4 and fig5 share runs; do them together to avoid re-running.
		rows, err := runFig45(quick)
		if err != nil {
			return fmt.Errorf("fig4/fig5: %w", err)
		}
		if err := emit(experiment.Fig4Table(rows)); err != nil {
			return err
		}
		if err := emit(experiment.Fig5Table(rows)); err != nil {
			return err
		}
		if plot {
			if err := experiment.Fig4Plot(rows).Render(os.Stdout); err != nil {
				return err
			}
			if err := experiment.Fig5Plot(rows).Render(os.Stdout); err != nil {
				return err
			}
		}
		for _, id := range []string{"e0", "fig3", "faults", "v1", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11", "a12", "a13", "a14", "a15", "a16", "a17", "a18"} {
			if err := runners[id](); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want e0, fig3, fig4, fig5, faults, v1, a1..a18, all)", exp)
	}
	return r()
}

func runFig45(quick bool) ([]experiment.Fig45Row, error) {
	cfg := experiment.DefaultFig45Config()
	if quick {
		cfg.Runs = 1
		cfg.Deadlines = cfg.Deadlines[:len(cfg.Deadlines):len(cfg.Deadlines)]
	}
	return experiment.RunFig45(cfg)
}

func tableRunner(f func() (*experiment.Table, error), emit func(*experiment.Table) error) func() error {
	return func() error {
		t, err := f()
		if err != nil {
			return err
		}
		return emit(t)
	}
}
