package trace

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"aqua/internal/wire"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindSchedule}) // must not panic
	if r.Len() != 0 {
		t.Error("nil recorder has events")
	}
	if r.Events() != nil {
		t.Error("nil recorder returned events")
	}
	if r.Enabled() {
		t.Error("nil recorder enabled")
	}
}

func TestZeroValueDisabled(t *testing.T) {
	var r Recorder
	r.Record(Event{Kind: KindSchedule})
	if r.Len() != 0 {
		t.Error("zero-value recorder captured an event")
	}
}

func TestRecordAndFilter(t *testing.T) {
	r := New()
	r.Record(Event{Kind: KindSchedule, Seq: 1, Targets: []wire.ReplicaID{"a", "b"}})
	r.Record(Event{Kind: KindReply, Seq: 1, Replica: "a"})
	r.Record(Event{Kind: KindReply, Seq: 1, Replica: "b"})
	r.Record(Event{Kind: KindFailure, Seq: 1})
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	replies := r.Filter(KindReply)
	if len(replies) != 2 {
		t.Errorf("replies = %d", len(replies))
	}
	if len(r.Filter(KindViolation)) != 0 {
		t.Error("unexpected violations")
	}
}

func TestSummarize(t *testing.T) {
	r := New()
	r.Record(Event{Kind: KindSchedule, Targets: []wire.ReplicaID{"a", "b"}})
	r.Record(Event{Kind: KindSchedule, Targets: []wire.ReplicaID{"a", "b", "c", "d"}})
	r.Record(Event{Kind: KindReply})
	r.Record(Event{Kind: KindFailure})
	r.Record(Event{Kind: KindViolation})
	s := r.Summarize()
	if s.Requests != 2 || s.Replies != 1 || s.Failures != 1 || s.Violations != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanTargets != 3 {
		t.Errorf("MeanTargets = %v, want 3", s.MeanTargets)
	}
	if s.TargetsByCount[2] != 1 || s.TargetsByCount[4] != 1 {
		t.Errorf("hist = %v", s.TargetsByCount)
	}
	str := s.String()
	for _, want := range []string{"requests=2", "mean|K|=3.00", "2:1", "4:1"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	r := New()
	r.Record(Event{
		At: 5 * time.Millisecond, Kind: KindSchedule, Client: "c", Seq: 9,
		Targets: []wire.ReplicaID{"a"}, Value: 0.93,
	})
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(b.String())), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindSchedule || e.Seq != 9 || e.Value != 0.93 {
		t.Errorf("round trip = %+v", e)
	}
}

func TestWriteCSV(t *testing.T) {
	r := New()
	r.Record(Event{
		At: time.Millisecond, Kind: KindReply, Client: "c", Seq: 2,
		Replica: "r1", Duration: 3 * time.Millisecond,
	})
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at_us,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "reply") || !strings.Contains(lines[1], "r1") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record(Event{Kind: KindReply})
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("Len = %d, want 800", r.Len())
	}
}

// TestRingBounded is the regression fence for the unbounded-growth bug:
// sustained traffic must cap memory at the configured capacity, with the
// truncation visible through Dropped.
func TestRingBounded(t *testing.T) {
	r := New(WithCapacity(4))
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindReply, Seq: wire.SeqNo(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	events := r.Events()
	for i, e := range events {
		if want := wire.SeqNo(6 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first order)", i, e.Seq, want)
		}
	}
	// Summarize covers the retained suffix only.
	if s := r.Summarize(); s.Replies != 4 {
		t.Errorf("Summarize replies = %d, want 4", s.Replies)
	}
}

func TestDefaultCapacityApplied(t *testing.T) {
	r := New()
	if r.capacity != DefaultCapacity {
		t.Errorf("capacity = %d, want %d", r.capacity, DefaultCapacity)
	}
	if r2 := New(WithCapacity(-1)); r2.capacity != DefaultCapacity {
		t.Errorf("negative capacity not defaulted: %d", r2.capacity)
	}
}

// TestCSVQuotingRoundTrip is the regression fence for malformed rows: IDs
// and Extra values containing commas, quotes, and newlines must survive a
// parse by a conforming CSV reader.
func TestCSVQuotingRoundTrip(t *testing.T) {
	r := New()
	r.Record(Event{
		At:      time.Millisecond,
		Kind:    KindReply,
		Client:  `evil,"client"` + "\nsecond-line",
		Seq:     7,
		Replica: `replica,with,commas`,
		Targets: []wire.ReplicaID{"a,b", `c"d`},
		Value:   0.5,
		Extra:   map[string]string{"note": `has,comma and "quote"` + "\nand newline"},
	})
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v\n%s", err, b.String())
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want header + 1", len(rows))
	}
	header, row := rows[0], rows[1]
	if len(row) != len(header) {
		t.Fatalf("row has %d fields, header %d", len(row), len(header))
	}
	field := func(name string) string {
		for i, h := range header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no column %q", name)
		return ""
	}
	if got := field("client"); got != `evil,"client"`+"\nsecond-line" {
		t.Errorf("client = %q", got)
	}
	if got := field("replica"); got != "replica,with,commas" {
		t.Errorf("replica = %q", got)
	}
	if got := field("targets"); got != `a,b|c"d` {
		t.Errorf("targets = %q", got)
	}
	var extra map[string]string
	if err := json.Unmarshal([]byte(field("extra")), &extra); err != nil {
		t.Fatalf("extra not valid JSON: %v", err)
	}
	if extra["note"] != `has,comma and "quote"`+"\nand newline" {
		t.Errorf("extra = %q", extra["note"])
	}
}

// TestConcurrentSummarize races Record against Summarize, Events, WriteCSV,
// and Dropped; run under -race this fences the recorder's synchronization.
func TestConcurrentSummarize(t *testing.T) {
	r := New(WithCapacity(64))
	var writers sync.WaitGroup
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < 500; j++ {
				r.Record(Event{Kind: KindSchedule, Targets: []wire.ReplicaID{"a", "b"}})
				r.Record(Event{Kind: KindReply})
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Summarize()
			if s.Requests > 0 && s.MeanTargets != 2 {
				t.Errorf("MeanTargets = %v, want 2", s.MeanTargets)
				return
			}
			_ = r.Events()
			_ = r.Dropped()
			var b strings.Builder
			_ = r.WriteCSV(&b)
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if total := uint64(r.Len()) + r.Dropped(); total != 4000 {
		t.Errorf("retained+dropped = %d, want 4000", total)
	}
}

func TestEventsIsCopy(t *testing.T) {
	r := New()
	r.Record(Event{Kind: KindReply, Seq: 1})
	events := r.Events()
	events[0].Seq = 99
	if r.Events()[0].Seq != 1 {
		t.Error("Events() aliases internal state")
	}
}
