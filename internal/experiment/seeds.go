package experiment

import (
	"time"

	"aqua/internal/sim"
)

// everyClient makes a cell measure every client of a run, not one.
const everyClient = -1

// seeds is one multi-seed table cell: runs consecutive seeds from first, one
// built scenario per seed, measured on one client or on every client. A run's
// rates are averaged over its measured clients first, then over the runs.
type seeds struct {
	first  int64
	runs   int
	client int           // measured client index, or everyClient
	warmup time.Duration // goodput counts timely requests issued from here on
}

// outcome is the union of what the simulator tables print. Over a cell the
// rates are means, the counts sums, MaxK the maximum and Budget the last
// run's.
type outcome struct {
	MeanK      float64       // mean |K| over admitted requests
	FailProb   float64       // timing failures / issued
	TimelyFrac float64       // timely / issued
	Goodput    float64       // timely completions/s issued after the warmup
	Served     float64       // copies the replicas served: the redundancy cost
	MeanRT     time.Duration // over requests that got a reply
	P95        time.Duration

	Issued, Shed, OverBudget int // measured clients; OverBudget: |K| above budget
	Cancels, Purged, Aborted int // whole run: Cancel messages, copies purged, aborted
	MaxK                     int // largest |K| over admitted requests
	Budget                   int // controller's final set point (0 when no controller)
}

// average runs build over the cell's seeds and averages what they measure.
func (s seeds) average(build func(seed int64) sim.Scenario) (outcome, error) {
	var total outcome
	for run := 0; run < s.runs; run++ {
		res, err := sim.Run(build(s.first + int64(run)))
		if err != nil {
			return outcome{}, err
		}
		clients := res.Clients
		if s.client != everyClient {
			clients = clients[s.client : s.client+1]
		}
		var o outcome
		for _, c := range clients {
			o.add(measure(c, s.warmup))
		}
		o.mean(len(clients))
		o.Served = float64(res.TotalServed())
		o.Cancels, o.Purged, o.Aborted = res.CancelsSent, res.CancelsPurged, res.CancelsAborted
		total.add(o)
	}
	total.mean(s.runs)
	return total, nil
}

// measure is one client's outcome in one run. Goodput is steady-state:
// timely completions issued after warmup, per second of makespan after it,
// so a cold-start transient every variant pays doesn't mask the regime a
// sweep measures.
func measure(c sim.ClientResult, warmup time.Duration) outcome {
	o := outcome{
		FailProb: c.FailureProbability(),
		MeanRT:   c.MeanResponseTime(),
		P95:      c.ResponseTimePercentile(95),
		Issued:   len(c.Records),
		Budget:   c.Controller.Budget,
	}
	var makespan time.Duration
	timely, steady, admitted, kSum := 0, 0, 0, 0
	for _, rec := range c.Records {
		makespan = max(makespan, rec.IssuedAt+rec.ResponseTime)
		if rec.Shed {
			o.Shed++
			continue
		}
		admitted++
		kSum += rec.NumSelected
		o.MaxK = max(o.MaxK, rec.NumSelected)
		if rec.Budget > 0 && rec.NumSelected > rec.Budget {
			o.OverBudget++
		}
		if rec.Timely() {
			timely++
			if rec.IssuedAt >= warmup {
				steady++
			}
		}
	}
	if makespan > warmup {
		o.Goodput = float64(steady) / (makespan - warmup).Seconds()
	}
	if o.Issued > 0 {
		o.TimelyFrac = float64(timely) / float64(o.Issued)
	}
	if admitted > 0 {
		o.MeanK = float64(kSum) / float64(admitted)
	}
	return o
}

// add folds o in: rates and counts add, MaxK keeps the larger, Budget the
// later.
func (s *outcome) add(o outcome) {
	s.MeanK += o.MeanK
	s.FailProb += o.FailProb
	s.TimelyFrac += o.TimelyFrac
	s.Goodput += o.Goodput
	s.Served += o.Served
	s.MeanRT += o.MeanRT
	s.P95 += o.P95
	s.Issued += o.Issued
	s.Shed += o.Shed
	s.OverBudget += o.OverBudget
	s.Cancels += o.Cancels
	s.Purged += o.Purged
	s.Aborted += o.Aborted
	s.MaxK = max(s.MaxK, o.MaxK)
	s.Budget = o.Budget
}

// mean divides the summed rates by n; the counts stay sums.
func (s *outcome) mean(n int) {
	s.MeanK /= float64(n)
	s.FailProb /= float64(n)
	s.TimelyFrac /= float64(n)
	s.Goodput /= float64(n)
	s.Served /= float64(n)
	s.MeanRT /= time.Duration(n)
	s.P95 /= time.Duration(n)
}
