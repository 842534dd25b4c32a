package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// measure is one reported number.
type measure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// outcome is what one run of one workload reports: the metrics the
// driver reads, and notes — the end-to-end metrics only this workload
// measures, which -compare gates, and diagnostics, which nothing does.
type outcome struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	errors    []string
	metrics   map[string]measure
	notes     map[string]measure
	order     []string
	timeline  []phase
}

func newOutcome(b *bench) *outcome {
	return &outcome{workload: b.wl.name, metrics: make(map[string]measure), notes: make(map[string]measure)}
}

// close copies the run's final op counts in; call it last.
func (o *outcome) close(b *bench, seed int64, traced bool) *outcome {
	o.seed, o.traced = seed, traced
	o.attempted, o.failed, o.errors = b.attempted, b.failed, b.errs.first
	o.timeline = b.timeline
	return o
}

func (o *outcome) add(name, unit string, v float64, samples int) {
	o.metrics[name] = measure{Value: v, Unit: unit, Samples: samples}
	o.order = append(o.order, name)
}

func (o *outcome) note(name, unit string, v float64, samples int) {
	o.notes[name] = measure{Value: v, Unit: unit, Samples: samples}
}

func (o *outcome) correct() bool {
	if o.failed != 0 || o.attempted < 1 {
		return false
	}
	for _, m := range o.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// print writes every metric by name with its unit and sample count.
func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d traced %v: attempted %d failed %d\n", o.workload, o.seed, o.traced, o.attempted, o.failed)
	for _, e := range o.errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, name := range o.order {
		m := o.metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	notes := make([]string, 0, len(o.notes))
	for name := range o.notes {
		notes = append(notes, name)
	}
	sort.Strings(notes)
	kind := make(map[string]string)
	for _, m := range workloadByName(o.workload).owned {
		kind[m.name] = fmt.Sprintf("this workload's own, bound %.2f", m.bound)
	}
	for _, name := range notes {
		m, k := o.notes[name], kind[name]
		if k == "" {
			k = "diagnostic"
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d (%s)\n", name, m.Value, m.Unit, m.Samples, k)
	}
}

// row is the whole outcome as a -json record keeps it.
func (o *outcome) row() row {
	return row{Workload: o.workload, Traced: o.traced, Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics, Notes: o.notes}
}

// result is the driver's last line: exactly these four keys, and per
// metric exactly value and unit.
func (o *outcome) result() map[string]any {
	metrics := make(map[string]any, len(o.metrics))
	for name, m := range o.metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": o.correct(), "attempted": o.attempted, "failed": o.failed, "metrics": metrics}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated p-quantile of xs, 0 when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB is the process's resident-set high-water mark, VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
