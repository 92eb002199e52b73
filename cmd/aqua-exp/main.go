// Command aqua-exp regenerates the paper's evaluation results and the
// ablation studies listed in DESIGN.md.
//
// Usage:
//
//	aqua-exp -exp all            # every experiment
//	aqua-exp -exp fig4           # one experiment (aqua-exp -h lists the ids)
//	aqua-exp -exp fences         # every self-checking experiment; non-zero exit on a miss
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
		exp          = flag.String("exp", "all", "experiment id: "+expValues())
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

// entry is one row of the experiment registry, the single list every -exp
// value, the usage text and the unknown-id error are derived from. Order is
// the order -exp all runs in.
type entry struct {
	id  string
	run func(*session) error
	// fence marks a self-checking experiment: run returns an error on a fence
	// miss, and -exp fences (make fences, CI) includes it.
	fence bool
	// quickInFences makes -exp fences run it in quick mode whatever -quick says.
	quickInFences bool
}

var registry = []entry{
	{id: "fig4", run: runFig4},
	{id: "fig5", run: runFig5},
	{id: "e0", run: runE0},
	{id: "fig3", run: runFig3},
	{id: "faults", run: runFaults},
	{id: "v1", run: table(experiment.RunV1)},
	{id: "a1", run: table(experiment.RunA1)},
	{id: "a2", run: table(experiment.RunA2)},
	{id: "a3", run: table(experiment.RunA3)},
	{id: "a4", run: table(experiment.RunA4)},
	{id: "a5", run: table(experiment.RunA5)},
	{id: "a6", run: table(experiment.RunA6)},
	{id: "a7", run: table(experiment.RunA7)},
	{id: "a8", run: table(experiment.RunA8)},
	{id: "a9", run: table(experiment.RunA9)},
	{id: "a10", run: table(experiment.RunA10)},
	{id: "a11", run: table(experiment.RunA11)},
	{id: "a12", run: table(experiment.RunA12)},
	{id: "a13", run: table(experiment.RunA13), fence: true},
	{id: "a14", run: table(experiment.RunA14), fence: true},
	{id: "a15", run: quickTable(experiment.RunA15), fence: true},
	// One seed instead of three: the ranking fence is the same, in under 1 s.
	{id: "a16", run: quickTable(experiment.RunA16), fence: true, quickInFences: true},
	{id: "a17", run: table(experiment.RunA17), fence: true},
	{id: "a18", run: table(experiment.RunA18), fence: true},
}

// expValues lists what -exp accepts, for the usage text and the unknown-id
// error.
func expValues() string {
	ids := make([]string, 0, len(registry)+2)
	for _, e := range registry {
		ids = append(ids, e.id)
	}
	return strings.Join(append(ids, "all", "fences"), ", ")
}

// session is one invocation's output options plus the Figure 4/5 rows, which
// the two figures share so -exp all sweeps them once.
type session struct {
	csv, quick, plot bool
	fig45Rows        []experiment.Fig45Row
}

func (s *session) emit(t *experiment.Table) error {
	if s.csv {
		return t.WriteCSV(os.Stdout)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	_, err := fmt.Println()
	return err
}

func (s *session) fig45() ([]experiment.Fig45Row, error) {
	if s.fig45Rows == nil {
		cfg := experiment.DefaultFig45Config()
		if s.quick {
			cfg.Runs = 1
		}
		rows, err := experiment.RunFig45(cfg)
		if err != nil {
			return nil, err
		}
		s.fig45Rows = rows
	}
	return s.fig45Rows, nil
}

// run resolves one -exp value against the registry: an id, "all" (every
// entry, in order) or "fences" (every self-checking entry).
func run(exp string, csv, quick, plot bool) error {
	s := &session{csv: csv, quick: quick, plot: plot}
	for _, e := range registry {
		if exp == e.id {
			return e.run(s)
		}
	}
	if exp != "all" && exp != "fences" {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, expValues())
	}
	for _, e := range registry {
		if exp == "fences" {
			if !e.fence {
				continue
			}
			s.quick = quick || e.quickInFences
		}
		if err := e.run(s); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
	}
	return nil
}

func runFig4(s *session) error {
	rows, err := s.fig45()
	if err != nil {
		return err
	}
	if err := s.emit(experiment.Fig4Table(rows)); err != nil || !s.plot {
		return err
	}
	return experiment.Fig4Plot(rows).Render(os.Stdout)
}

func runFig5(s *session) error {
	rows, err := s.fig45()
	if err != nil {
		return err
	}
	if err := s.emit(experiment.Fig5Table(rows)); err != nil || !s.plot {
		return err
	}
	return experiment.Fig5Plot(rows).Render(os.Stdout)
}

func runE0(s *session) error {
	cfg := experiment.DefaultE0Config()
	if s.quick {
		cfg.Requests = 500
	}
	res, err := experiment.RunE0(cfg)
	if err != nil {
		return err
	}
	return s.emit(experiment.E0Table(res))
}

func runFig3(s *session) error {
	cfg := experiment.DefaultFig3Config()
	if s.quick {
		cfg.Iterations = 30
	}
	rows, err := experiment.RunFig3(cfg)
	if err != nil {
		return err
	}
	return s.emit(experiment.Fig3Table(rows))
}

func runFaults(s *session) error {
	cfg := experiment.DefaultFaultsConfig()
	if s.quick {
		cfg.Warmup = 15
		cfg.Requests = 40
	}
	res, err := experiment.RunFaults(cfg)
	if err != nil {
		return err
	}
	return s.emit(experiment.FaultsTable(res))
}

// table adapts an experiment that takes no options and returns one table.
func table(f func() (*experiment.Table, error)) func(*session) error {
	return quickTable(func(bool) (*experiment.Table, error) { return f() })
}

// quickTable adapts an experiment whose only option is quick mode.
func quickTable(f func(quick bool) (*experiment.Table, error)) func(*session) error {
	return func(s *session) error {
		t, err := f(s.quick)
		if err != nil {
			return err
		}
		return s.emit(t)
	}
}
