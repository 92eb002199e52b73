// Command bench is the repository's benchmark: seven Client.Call workloads
// (open and closed loop), nine end-to-end metrics with regression bounds,
// and a per-layer table measured from outside the program. See README.md.
//
//	go run ./bench [-seed N] [-workload a,b] [-repeat R] [-out FILE]    the full command
//	go run ./bench -workload W -seed N -seconds S -trace 0|1            one run, one JSON line last
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	stages   string
	procs    int
	repeat   int
	out      string
	spans    string
	quick    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name; with -trace, one run of it; a comma list or empty selects workloads of the full command")
	flag.Int64Var(&o.seed, "seed", 1, "seeds arrival times, payloads and the replicas' load injectors")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds of one run (0: each workload's own length)")
	flag.IntVar(&o.trace, "trace", -1, "one run: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&o.stages, "stages", "", "one run: stages to execute, of probe,untraced,traced (default: by -trace)")
	flag.IntVar(&o.procs, "procs", 2, "GOMAXPROCS of a run")
	flag.IntVar(&o.repeat, "repeat", 1, "full command: run the untraced workloads R times on seeds seed..seed+R-1 and check the spreads")
	flag.StringVar(&o.out, "out", "", "full command: also write the results as JSON to this file")
	flag.StringVar(&o.spans, "spans", "", "one run: write the traced calls' spans as JSON lines to this file")
	flag.BoolVar(&o.quick, "quick", false, "full command: smoke run, every stage at most 0.5 s, in this process")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case o.trace >= 0 || o.stages != "":
		res, err := runOne(o, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(o, os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// envBlock says what a result was measured on, so two result files can be
// seen to be comparable before their numbers are compared.
type envBlock struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Go            string  `json:"go"`
	Kernel        string  `json:"kernel"`
	SleepOver100u float64 `json:"sleep_overshoot_us_100us"`
	SleepOver5ms  float64 `json:"sleep_overshoot_us_5ms"`
	Seed          int64   `json:"seed"`
	Commit        string  `json:"commit"`
}

// sleepOvershoot is the median time by which time.Sleep(d) returns late. On
// a box where it is large, short simulated service times measure the kernel
// timer instead of the selector.
func sleepOvershoot(d time.Duration, samples int) float64 {
	over := make([]float64, samples)
	for i := range over {
		t := time.Now()
		time.Sleep(d)
		over[i] = float64(time.Since(t)-d) / 1e3
	}
	return median(over)
}

func measureEnv(o options) envBlock {
	n100, n5 := 40, 10
	if o.quick {
		n100, n5 = 5, 2
	}
	e := envBlock{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Go:            runtime.Version(),
		Kernel:        "unknown",
		SleepOver100u: sleepOvershoot(100*time.Microsecond, n100),
		SleepOver5ms:  sleepOvershoot(5*time.Millisecond, n5),
		Seed:          o.seed,
		Commit:        "unknown",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func (e envBlock) String() string {
	return fmt.Sprintf("env nproc=%d GOMAXPROCS=%d go=%s kernel=%s env.sleep_overshoot_us(100us)=%.0f env.sleep_overshoot_us(5ms)=%.0f seed=%d commit=%s",
		e.NProc, e.GOMAXPROCS, e.Go, e.Kernel, e.SleepOver100u, e.SleepOver5ms, e.Seed, e.Commit)
}

// errCount is one failure class of a run.
type errCount struct {
	N      int    `json:"n"`
	Sample string `json:"sample"`
}

// result is everything one run measured.
type result struct {
	Workload  string   `json:"workload"`
	Stages    []string `json:"stages"`
	Seconds   float64  `json:"seconds"`
	Env       envBlock `json:"env"`
	Transport string   `json:"transport"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   values   `json:"metrics"`
	// UntracedCallP50 is the untraced run's median Call duration in µs (from
	// the send, not the due time): the base of trace.overhead_frac.
	UntracedCallP50 float64             `json:"untraced_call_p50_us,omitempty"`
	Errors          map[string]errCount `json:"errors,omitempty"`
	Notes           []string            `json:"notes,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) absorb(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.fails.total()
	for c, n := range w.fails.n {
		if n == 0 {
			continue
		}
		e := r.Errors[errClassNames[c]]
		if e.N == 0 {
			e.Sample = w.fails.sample[c]
		}
		e.N += n
		r.Errors[errClassNames[c]] = e
	}
	if w.fails.n[errWrongReply] > 0 {
		r.Correct = false
		r.note("%d replies failed verification", w.fails.n[errWrongReply])
	}
}

// verifyLogs runs the end-of-run check of an ordered workload.
func (r *result) verifyLogs(logs *logSet, acks []ack) {
	lengths, err := logs.verify(acks)
	if err != nil {
		r.Correct = false
		r.note("%v", err)
		return
	}
	r.note("ordered state agrees: applied log lengths %v, %d acknowledged writes found in the longest", lengths, len(acks))
}

// The stages of a run.
const (
	stageProbe    = "probe"
	stageUntraced = "untraced"
	stageTraced   = "traced"
)

// tracedInvalid starts the note of a traced run whose stage table cannot be
// trusted; the full command collects these notes and fails on them.
const tracedInvalid = "traced run invalid"

// stageWeights splits a run's seconds among the stages it executes.
var stageWeights = map[string]float64{stageProbe: 0.2, stageUntraced: 0.4, stageTraced: 0.4}

// warmFor is the unrecorded warm stretch before a measured window.
func warmFor(measure time.Duration) time.Duration {
	if w := measure / 4; w < time.Duration(warmSeconds*float64(time.Second)) {
		return w
	}
	return time.Duration(warmSeconds * float64(time.Second))
}

// runOne executes one run — the unit the driver invokes — and prints the
// environment block, a table, a "detail" line with everything measured, and
// last the contract's JSON line.
func runOne(o options, out io.Writer) (*result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	stages := strings.Split(o.stages, ",")
	if o.stages == "" {
		stages = []string{stageUntraced}
		if o.trace == 1 {
			stages = []string{stageProbe, stageUntraced, stageTraced}
		}
	}
	if o.seconds <= 0 {
		o.seconds = w.fullSeconds
	}
	total := 0.0
	for _, s := range stages {
		if stageWeights[s] == 0 {
			return nil, fmt.Errorf("unknown stage %q", s)
		}
		total += stageWeights[s]
	}
	budget := func(stage string) time.Duration {
		return time.Duration(o.seconds * stageWeights[stage] / total * float64(time.Second))
	}

	// A run that hangs (a lost frame under a probe, a wedged cluster) must not
	// outlive the driver's patience.
	watchdog := time.AfterFunc(time.Duration(o.seconds*3)*time.Second+90*time.Second, func() {
		fatal(fmt.Errorf("%s: run exceeded its time limit", w.name))
	})
	defer watchdog.Stop()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.procs))
	res := &result{
		Workload: w.name, Stages: stages, Seconds: o.seconds, Env: measureEnv(o), Transport: w.transportNote(),
		Correct: true, Metrics: values{}, Errors: map[string]errCount{},
	}
	fmt.Fprintf(out, "# bench workload=%s stages=%s seconds=%g\n%s\n%s\n", w.name, strings.Join(stages, ","), o.seconds, res.Env, res.Transport)

	warmCalls := w.warmCalls
	if o.quick {
		warmCalls /= 20
	}
	for _, stage := range stages {
		var err error
		switch stage {
		case stageProbe:
			err = res.probeStage(o, budget(stage))
		case stageUntraced:
			err = res.untracedStage(o, w, warmCalls, budget(stage), len(stages) == 1)
		case stageTraced:
			err = res.tracedStage(o, w, warmCalls, budget(stage))
		}
		if err != nil {
			return nil, err
		}
	}
	if res.Attempted == 0 {
		res.Attempted = probeLoops // a probe-only run attempted its probes
	}

	printTable(out, res)
	detail, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "detail %s\n", detail)
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	if o.trace >= 0 {
		line, err := contractLine(res, defs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return res, nil
}

func (r *result) probeStage(o options, budget time.Duration) error {
	v, err := runProbes(o.seed, budget/(probeLoops*probeReps))
	if err != nil {
		return err
	}
	for k, x := range v {
		r.Metrics[k] = x
	}
	return nil
}

// untracedStage sets the system up (several times when setup_s is wanted,
// reporting the median), runs the workload's loop, and fills the end-to-end
// and count metrics.
func (r *result) untracedStage(o options, w workload, warmCalls int, budget time.Duration, wantSetup bool) error {
	// A fixed number of set-ups, so that what they leave behind (peak RSS)
	// does not depend on how fast they happened to run.
	n := 1
	if wantSetup && !o.quick {
		n = w.setups
	}
	var sys *system
	setups := make([]float64, 0, n)
	for len(setups) < n {
		if sys != nil {
			sys.close()
		}
		s, took, err := setUp(w, o.seed, warmCalls, buildPublic)
		if err != nil {
			return err
		}
		sys, setups = s, append(setups, took.Seconds())
	}
	defer sys.close()

	c := &caller{w: w, sys: sys, filler: makeFiller(w.payload, o.seed)}
	win := run(c, o.seed, warmFor(budget), budget)
	r.absorb(win)
	if w.ordered {
		r.verifyLogs(sys.logs, win.acks)
	}
	r.Metrics["setup_s"] = median(setups)
	for k, x := range win.endToEndValues() {
		r.Metrics[k] = x
	}
	for k, x := range win.countValues() {
		r.Metrics[k] = x
	}
	r.note("untraced run: %s", tailNote(win.latNs))
	r.UntracedCallP50 = r.Metrics["call_p50_us"]
	if win.callNs != nil { // open loop: Call's own duration, not the latency from the due time
		r.UntracedCallP50 = percentile(nsToSortedUs(win.callNs), 0.50)
	}
	return nil
}

// tracedStage runs the workload on the stack assembled over recording
// endpoints and fills the traced metrics.
func (r *result) tracedStage(o options, w workload, warmCalls int, budget time.Duration) error {
	tr := newTracer()
	sys, _, err := setUp(w, o.seed, warmCalls, buildTraced(tr))
	if err != nil {
		return err
	}
	c := &caller{w: w, sys: sys, filler: makeFiller(w.payload, o.seed)}
	win := run(c, o.seed, warmFor(budget), budget)
	sys.close()
	r.absorb(win)
	if w.ordered {
		r.verifyLogs(sys.logs, win.acks)
	}
	v, traces, join := tr.assemble(win.t0)
	for k, x := range v {
		r.Metrics[k] = x
	}
	r.note("traced run: %s; %s", tailNote(win.latNs), join)
	if frac := v["trace.stage_sum_frac"]; w.closed && (frac < 0.95 || frac > 1.05) {
		r.note("%s: trace.stage_sum_frac %.3f outside 0.95-1.05", tracedInvalid, frac)
	}
	if !join.valid() {
		r.note("%s: a stage is negative, or more than %g of the successful calls lack a stamp", tracedInvalid, maxIncompleteShare)
	}
	if r.UntracedCallP50 > 0 {
		setOverhead(r.Metrics, r.UntracedCallP50)
	}
	if o.spans != "" {
		return writeSpans(o.spans, traces)
	}
	return nil
}

// tailNote reports the latency tail of a window with the sample count behind
// it: p99 always, p999 when at least ten samples lie beyond it. The tail is
// printed, not gated: on 1 200 calls it does not repeat (README, "Bounds").
func tailNote(latNs []int64) string {
	us := nsToSortedUs(latNs)
	s := fmt.Sprintf("call latency p99 %.1f us (n=%d, %d beyond)", percentile(us, 0.99), len(us), len(us)/100)
	if len(us) >= 10000 {
		s += fmt.Sprintf(", p999 %.1f us", percentile(us, 0.999))
	}
	return s
}

// setOverhead fills trace.overhead_frac, the share by which tracing lengthens
// the median call, once the traced metrics and the untraced median are known:
// inside a run that had both stages, or by the full command, whose untraced
// and traced runs are separate processes.
func setOverhead(traced values, untracedP50 float64) {
	traced["trace.overhead_frac"] = ratio(traced["gateway.call_us_p50"], untracedP50) - 1
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

var tableHeader = fmt.Sprintf("%-14s %-36s %16s  %s", "workload", "metric", "value", "unit")

// printRows prints workload, metric, value, unit for every measured metric,
// in definition order.
func printRows(out io.Writer, workload string, measured values) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if x, ok := measured[d.Name]; ok {
				fmt.Fprintf(out, "%-14s %-36s %16.4f  %s\n", workload, d.Name, x, d.Unit)
			}
		}
	}
}

// printTable prints everything one run measured, then its failures by class
// and any notes.
func printTable(out io.Writer, r *result) {
	fmt.Fprintln(out, tableHeader)
	printRows(out, r.Workload, r.Metrics)
	fmt.Fprintf(out, "%-14s ops_attempted=%d ops_ok=%d ops_failed=%d\n", r.Workload, r.Attempted, r.Attempted-r.Failed, r.Failed)
	classes := make([]string, 0, len(r.Errors))
	for c := range r.Errors {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(out, "%-14s failed class=%s n=%d sample=%q\n", r.Workload, c, r.Errors[c].N, r.Errors[c].Sample)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "%-14s note: %s\n", r.Workload, n)
	}
}

// contractLine renders the one JSON object the driver reads: exactly the
// keys correct, attempted, failed and metrics, with exactly the named metrics.
func contractLine(r *result, defs []metricDef) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		x, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value (no successful call?)", r.Workload, d.Name)
		}
		ms[d.Name] = mv{x, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// child runs one run in a process of its own (the parent re-executes its
// binary, so RSS, CPU time, GC state and leaked goroutines never carry from
// one workload to the next) or, for -quick, in this process.
func child(o options, log io.Writer) (*result, error) {
	if o.quick {
		var buf bytes.Buffer
		res, err := runOne(o, &buf)
		_, _ = io.Copy(log, humanPart(&buf))
		return res, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-stages", o.stages, "-procs", fmt.Sprint(o.procs),
	}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	var res *result
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			res = &result{}
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, fmt.Errorf("%s: parsing run output: %w", o.workload, err)
			}
		}
	}
	_, _ = io.Copy(log, humanPart(&buf))
	var exit *exec.ExitError
	if errors.As(runErr, &exit) && exit.ExitCode() == 1 && res != nil {
		return res, nil // the run finished and reported itself incorrect
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: run failed: %w", o.workload, runErr)
	}
	if res == nil {
		return nil, fmt.Errorf("%s: run printed no result", o.workload)
	}
	return res, nil
}

// humanPart drops the machine lines of a run's output.
func humanPart(buf *bytes.Buffer) io.Reader {
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "detail ") && !strings.HasPrefix(line, "{") {
			keep = append(keep, line)
		}
	}
	return strings.NewReader(strings.Join(keep, "\n") + "\n\n")
}

// report is the full command's JSON output.
type report struct {
	Command   string               `json:"command"`
	Env       envBlock             `json:"env"`
	Transport string               `json:"transport"`
	Probe     values               `json:"probe"`
	Workloads map[string]values    `json:"workloads"`      // first seed: end-to-end, counts and traced metrics
	Repeats   map[string][]values  `json:"repeats"`        // every untraced run's end-to-end metrics, by seed order
	Failures  map[string][]float64 `json:"failure_shares"` // failed / attempted of every untraced run
	Invalid   []string             `json:"invalid,omitempty"`
}

// runAll is the full command: the probe stage, every workload untraced (R
// times with -repeat), every workload traced at one-third length, one table.
func runAll(o options, out io.Writer) error {
	selected := workloads
	if o.workload != "" {
		selected = nil
		for _, name := range strings.Split(o.workload, ",") {
			w, ok := workloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
			}
			selected = append(selected, w)
		}
	}
	if o.repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	o.trace = -1 // the stages are named; no run prints a contract line
	length := func(w workload) float64 {
		switch {
		case o.quick:
			return 0.15
		case o.seconds > 0:
			return o.seconds
		}
		return w.fullSeconds
	}
	rep := &report{
		Command:   "go run ./bench " + strings.Join(os.Args[1:], " "),
		Transport: "all traffic crosses the in-memory transport or the host's loopback interface; no number here is a link rate",
		Workloads: map[string]values{}, Repeats: map[string][]values{}, Failures: map[string][]float64{},
	}

	probeSeconds := float64(probeLoops*probeReps) * 0.2 // every probe loop at least 200 ms
	if o.quick {
		probeSeconds = 0.1
	}
	po := o
	po.workload, po.stages, po.seconds = selected[0].name, stageProbe, probeSeconds
	probed, err := child(po, out)
	if err != nil {
		return err
	}
	rep.Env, rep.Probe = probed.Env, probed.Metrics

	incorrect := false
	untracedP50 := map[string]float64{}
	for r := 0; r < o.repeat; r++ {
		for _, w := range selected {
			uo := o
			uo.workload, uo.stages, uo.seconds, uo.seed = w.name, stageUntraced, length(w), o.seed+int64(r)
			res, err := child(uo, out)
			if err != nil {
				return err
			}
			incorrect = incorrect || !res.Correct
			if r == 0 {
				rep.Workloads[w.name] = res.Metrics
				untracedP50[w.name] = res.UntracedCallP50
			}
			e2e := values{}
			for _, d := range endToEnd {
				e2e[d.Name] = res.Metrics[d.Name]
			}
			rep.Repeats[w.name] = append(rep.Repeats[w.name], e2e)
			rep.Failures[w.name] = append(rep.Failures[w.name], float64(res.Failed)/float64(res.Attempted))
		}
	}
	for _, w := range selected {
		to := o
		to.workload, to.stages, to.seconds = w.name, stageTraced, length(w)/3
		if o.out != "" {
			to.spans = o.out + "." + w.name + ".spans.jsonl"
		}
		res, err := child(to, out)
		if err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
		all := rep.Workloads[w.name]
		for k, x := range res.Metrics {
			all[k] = x
		}
		setOverhead(all, untracedP50[w.name])
		for _, n := range res.Notes {
			if strings.HasPrefix(n, "traced run invalid") {
				rep.Invalid = append(rep.Invalid, w.name+": "+n)
			}
		}
	}

	fmt.Fprintf(out, "%s\n%s\n%s\n", rep.Env, rep.Transport, tableHeader)
	printRows(out, "probe", rep.Probe)
	for _, w := range selected {
		printRows(out, w.name, rep.Workloads[w.name])
	}
	for _, line := range rep.Invalid {
		fmt.Fprintln(out, "INVALID", line)
	}
	unsteady := false
	if o.repeat > 1 {
		unsteady = calibration(out, selected, rep)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	switch {
	case incorrect:
		return errors.New("a run reported wrong replies or diverged ordered state")
	case len(rep.Invalid) > 0:
		return errors.New("a traced run's stage table is invalid")
	case unsteady:
		return errors.New("calibration: a spread or the drift between the halves exceeds its bound, or a failure share its tolerance")
	}
	return nil
}

// failureTolerance is absolute, never relative: the Dispatched race yields a
// failure share of a few 1e-5 that varies twofold from run to run.
const failureTolerance = 1e-4

// calibration prints min, median, max and spread ÷ median of every end-to-end
// metric over the repeats and, from four repeats up, the drift between the
// medians of their first and second half. It reports whether any spread or
// drift exceeds the metric's bound, or any run's failure share exceeds the
// median's by more than failureTolerance. The spread is the interquartile
// range as Python's statistics.quantiles(n=4) gives it: spread and drift are
// the two measures the benchmark itself is judged by.
func calibration(out io.Writer, selected []workload, rep *report) (unsteady bool) {
	fmt.Fprintf(out, "\ncalibration over %d runs per workload\n", len(rep.Repeats[selected[0].name]))
	fmt.Fprintf(out, "%-14s %-18s %14s %14s %14s %8s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "drift", "bound")
	for _, w := range selected {
		for _, d := range endToEnd {
			xs := make([]float64, 0, len(rep.Repeats[w.name]))
			for _, v := range rep.Repeats[w.name] {
				xs = append(xs, v[d.Name])
			}
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, median(xs))
			drift := 0.0
			if half := len(xs) / 2; half >= 2 {
				first := median(xs[:half])
				drift = ratio(math.Abs(median(xs[len(xs)-half:])-first), first)
			}
			flag := ""
			if spread > d.Bound || drift > d.Bound {
				flag, unsteady = "  EXCEEDS", true
			}
			sort.Float64s(xs)
			fmt.Fprintf(out, "%-14s %-18s %14.4f %14.4f %14.4f %8.4f %8.4f %6.2f%s\n",
				w.name, d.Name, xs[0], median(xs), xs[len(xs)-1], spread, drift, d.Bound, flag)
		}
		shares := rep.Failures[w.name]
		for i, s := range shares {
			if s > median(shares)+failureTolerance {
				fmt.Fprintf(out, "%-14s failure share of run %d is %.6f, median %.6f  EXCEEDS\n", w.name, i, s, median(shares))
				unsteady = true
			}
		}
	}
	return unsteady
}
