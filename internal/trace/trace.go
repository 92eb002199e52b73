// Package trace records scheduler decisions and request outcomes as
// structured events, for debugging selection behaviour and for exporting
// experiment runs. Events serialize to JSON Lines or CSV.
//
// The paper evaluates its algorithm by exactly these series — which
// replicas were selected, with what predicted probability, and whether the
// response was timely — so the trace schema mirrors the evaluation.
//
// The recorder keeps a bounded ring of the most recent events (long runs no
// longer grow memory without bound; Dropped reports how many old events
// were overwritten).
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aqua/internal/wire"
)

// Kind labels an event.
type Kind string

// Event kinds.
const (
	KindSchedule   Kind = "schedule"   // a selection decision
	KindReply      Kind = "reply"      // a reply arrived (first or duplicate)
	KindFailure    Kind = "failure"    // a timing failure was charged
	KindViolation  Kind = "violation"  // the QoS-violation callback fired
	KindMembership Kind = "membership" // a view change was applied
	KindLifecycle  Kind = "lifecycle"  // a replica health transition (suspect/quarantine/clear)
	KindRestart    Kind = "restart"    // a quarantined replica was retired and a replacement booted
)

// Event is one recorded occurrence.
type Event struct {
	At       time.Duration     `json:"at"` // virtual or relative time
	Kind     Kind              `json:"kind"`
	Client   wire.ClientID     `json:"client,omitempty"`
	Seq      wire.SeqNo        `json:"seq"`
	Replica  wire.ReplicaID    `json:"replica,omitempty"`
	Targets  []wire.ReplicaID  `json:"targets,omitempty"`
	Value    float64           `json:"value,omitempty"` // predicted P_K(t), tr seconds, etc.
	Extra    map[string]string `json:"extra,omitempty"`
	Duration time.Duration     `json:"duration,omitempty"` // response time, overhead, …
}

// DefaultCapacity bounds the event ring when no explicit capacity is given:
// enough to hold the complete trace of every experiment in EXPERIMENTS.md,
// small enough (~10 MB of events) that a long-lived gateway cannot exhaust
// memory by tracing.
const DefaultCapacity = 1 << 16

// Option configures a Recorder.
type Option func(*Recorder)

// WithCapacity bounds the in-memory event ring to n events; once full, each
// new event overwrites the oldest and Dropped advances. n <= 0 means
// DefaultCapacity.
func WithCapacity(n int) Option {
	return func(r *Recorder) {
		if n > 0 {
			r.capacity = n
		}
	}
}

// Recorder collects events into a bounded ring. It is safe for concurrent
// use. The zero value is ready and records nothing until enabled; construct
// with New for an enabled recorder.
type Recorder struct {
	mu       sync.Mutex
	chunks   [][]Event // ring storage in chunkLen pieces: growing never copies (a 100 MB copy stalls every caller)
	n        int       // events held, up to capacity
	start    int       // index of the oldest event once the ring wrapped
	capacity int
	dropped  uint64
	enabled  bool
}

// New returns an enabled recorder.
func New(opts ...Option) *Recorder {
	r := &Recorder{enabled: true, capacity: DefaultCapacity}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Enabled reports whether the recorder captures events.
func (r *Recorder) Enabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enabled
}

// Record appends an event. Nil or disabled recorders drop it, so call
// sites never need guards. When the ring is full the oldest event is
// overwritten (see Dropped). A recorded event keeps its own copy of Targets:
// callers hand in pooled buffers they reuse after the call.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	e.Targets = slices.Clone(e.Targets)
	if r.capacity <= 0 {
		r.capacity = DefaultCapacity // zero value enabled via struct literal
	}
	if r.n < r.capacity {
		if r.n == len(r.chunks)*chunkLen {
			r.chunks = append(r.chunks, make([]Event, chunkLen))
		}
		*r.at(r.n) = e
		r.n++
		return
	}
	*r.at(r.start) = e
	r.start = (r.start + 1) % r.n
	r.dropped++
}

const chunkLen = 1024

func (r *Recorder) at(i int) *Event { return &r.chunks[i/chunkLen][i%chunkLen] }

// Len returns the number of events currently held (at most the capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events were overwritten because the ring was
// full. A non-zero value means Events/Summarize see a truncated suffix of
// the run.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the retained events in recording order (oldest
// first).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	for i := range out {
		out[i] = *r.at((r.start + i) % r.n)
	}
	return out
}

// Filter returns the recorded events of one kind.
func (r *Recorder) Filter(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL writes the retained events, one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encoding event: %w", err)
		}
	}
	return nil
}

// WriteCSV writes a flat CSV view (targets joined with '|', extra as a JSON
// object). Fields containing separators, quotes, or newlines are quoted per
// RFC 4180 by encoding/csv, so arbitrary client/replica IDs and Extra
// values round-trip.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_us", "kind", "client", "seq", "replica", "targets", "value", "duration_us", "extra"}); err != nil {
		return fmt.Errorf("trace: writing csv header: %w", err)
	}
	for _, e := range r.Events() {
		targets := make([]string, len(e.Targets))
		for i, t := range e.Targets {
			targets[i] = string(t)
		}
		extra := ""
		if len(e.Extra) > 0 {
			blob, err := json.Marshal(e.Extra) // map keys marshal sorted: stable output
			if err != nil {
				return fmt.Errorf("trace: encoding extra: %w", err)
			}
			extra = string(blob)
		}
		row := []string{
			strconv.FormatInt(e.At.Microseconds(), 10),
			string(e.Kind),
			string(e.Client),
			strconv.FormatUint(uint64(e.Seq), 10),
			string(e.Replica),
			strings.Join(targets, "|"),
			strconv.FormatFloat(e.Value, 'g', -1, 64),
			strconv.FormatInt(e.Duration.Microseconds(), 10),
			extra,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: writing csv: %w", err)
	}
	return nil
}

// Summary aggregates a trace into the headline metrics.
type Summary struct {
	Requests       int
	Replies        int
	Failures       int
	Violations     int
	MeanTargets    float64
	TargetsByCount map[int]int // histogram of |K|
}

// Summarize computes a Summary from the retained events. With a full ring
// (Dropped > 0) the summary covers only the retained suffix of the run.
func (r *Recorder) Summarize() Summary {
	s := Summary{TargetsByCount: make(map[int]int)}
	var totalTargets int
	for _, e := range r.Events() {
		switch e.Kind {
		case KindSchedule:
			s.Requests++
			totalTargets += len(e.Targets)
			s.TargetsByCount[len(e.Targets)]++
		case KindReply:
			s.Replies++
		case KindFailure:
			s.Failures++
		case KindViolation:
			s.Violations++
		}
	}
	if s.Requests > 0 {
		s.MeanTargets = float64(totalTargets) / float64(s.Requests)
	}
	return s
}

func (s Summary) String() string {
	counts := make([]int, 0, len(s.TargetsByCount))
	for k := range s.TargetsByCount {
		counts = append(counts, k)
	}
	sort.Ints(counts)
	var hist strings.Builder
	for i, k := range counts {
		if i > 0 {
			hist.WriteString(" ")
		}
		fmt.Fprintf(&hist, "%d:%d", k, s.TargetsByCount[k])
	}
	return fmt.Sprintf("requests=%d replies=%d failures=%d violations=%d mean|K|=%.2f hist{%s}",
		s.Requests, s.Replies, s.Failures, s.Violations, s.MeanTargets, hist.String())
}
