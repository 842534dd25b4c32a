package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// The harness's own spans. Tracing inside the engine stays detached in
// every run; the traced run wraps calls from outside. A span is either
// timed by the harness around a call ("harness"), or laid out under such
// a span from the durations the call returned in its Report ("report"):
// the engine runs its phases one after another, so laying them end to
// end inside the call reproduces the order and the lengths, though not
// the exact start instants.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root span of an op
	Op     int    `json:"op"`     // spans of one op share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the start of the run
	End    int64  `json:"end_ns"`
	Source string `json:"source"`
}

// tracer keeps spans in memory until the run ends. One goroutine uses
// it: the traced run has one client.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// op starts a new op and returns its root span.
func (t *tracer) op(name string) int {
	t.ops++
	return t.begin(name, 0)
}

// begin opens a harness-timed span under parent (0 opens a root of the
// current op).
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.ops, Name: name, Start: t.now(), Source: "harness"})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	return time.Duration(s.End - s.Start)
}

// lay places a report-derived span of length d at start under parent
// and returns its id and its end. The length is the Report's, unclipped:
// a Report whose phases over-run the call they were measured in shows as
// a child longer than its parent, and the traced run's coverage check
// fails on it.
func (t *tracer) lay(name string, parent int, start int64, d time.Duration) (int, int64) {
	end := start + int64(d)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.spans[parent-1].Op, Name: name, Start: start, End: end, Source: "report"})
	return len(t.spans), end
}

// selfTimes returns, per span name, each span's self time in ms: its
// length minus the part its children cover, and 0 where report-derived
// children over-run it. Children of one parent never overlap here, so
// that part is the sum of their lengths.
func (t *tracer) selfTimes() map[string][]float64 {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - covered[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// write saves the spans, one JSON object a line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
