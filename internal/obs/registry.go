package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant key/value pairs attached to an instrument at
// registration. Two instruments may share a metric name as long as
// their label sets differ (the phase-latency histograms do exactly
// that); the registry renders them as one Prometheus metric family.
type Labels map[string]string

type labelPair struct{ k, v string }

// sortLabels normalizes a label map into a deterministic slice.
func sortLabels(ls Labels) []labelPair {
	out := make([]labelPair, 0, len(ls))
	for k, v := range ls {
		out = append(out, labelPair{k, v})
	}
	slices.SortFunc(out, func(a, b labelPair) int { return strings.Compare(a.k, b.k) })
	return out
}

// kind is the Prometheus metric type of an instrument.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	}
	return "gauge"
}

// Counter is a monotonically increasing counter. Add and Inc are
// lock-free, allocation-free, and safe for concurrent use; a nil
// *Counter is a no-op, so unregistered instruments cost nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only rise).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. All methods are lock-free,
// allocation-free, and nil-safe.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop; contended adds stay lock-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// instrument is one registered series: a name, a constant label set,
// and exactly one backing value.
type instrument struct {
	name   string
	help   string
	labels []labelPair
	kind   kind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// seriesKey identifies an instrument: name plus rendered labels.
func (in *instrument) seriesKey() string {
	return in.name + renderLabels(in.labels, "", 0)
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. Registration (package init, setup code) takes a
// lock; recording into the instruments themselves never does. The zero
// value is not usable — use NewRegistry or the package-level Default.
type Registry struct {
	mu    sync.Mutex
	ins   []*instrument
	index map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*instrument)}
}

// Default is the process-wide registry the package-level constructors
// register into and obs.Serve exposes by default. Instruments declared
// as package vars across the engine's layers land here.
var Default = NewRegistry()

func (r *Registry) register(in *instrument) {
	if err := checkName(in.name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := in.seriesKey()
	if _, dup := r.index[key]; dup {
		panic(fmt.Sprintf("obs: duplicate instrument %s", key))
	}
	if prev, ok := r.index[in.name]; ok && prev.kind != in.kind {
		panic(fmt.Sprintf("obs: instrument %s re-registered as %s, was %s", in.name, in.kind, prev.kind))
	}
	r.index[key] = in
	if len(in.labels) > 0 {
		// Remember the family name too, so a later registration with a
		// conflicting kind (or no labels) is caught.
		if _, ok := r.index[in.name]; !ok {
			r.index[in.name] = in
		}
	}
	r.ins = append(r.ins, in)
}

// NewCounter registers a counter with constant labels (nil for none).
func (r *Registry) NewCounter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(&instrument{name: name, help: help, labels: sortLabels(labels), kind: kindCounter, counter: c})
	return c
}

// NewGauge registers a gauge with constant labels (nil for none).
func (r *Registry) NewGauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.register(&instrument{name: name, help: help, labels: sortLabels(labels), kind: kindGauge, gauge: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is read from fn at every
// scrape — the bridge for values something else already maintains.
func (r *Registry) NewGaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(&instrument{name: name, help: help, labels: sortLabels(labels), kind: kindGauge, gaugeFn: fn})
}

// NewHistogram registers a histogram with the given upper bucket
// bounds (nil means LatencyBuckets) and constant labels.
func (r *Registry) NewHistogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&instrument{name: name, help: help, labels: sortLabels(labels), kind: kindHistogram, hist: h})
	return h
}

// Package-level constructors registering into Default. Engine packages
// declare their instruments as package vars through these.

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help, nil) }

// NewCounterL registers a labeled counter in the Default registry.
func NewCounterL(name, help string, labels Labels) *Counter {
	return Default.NewCounter(name, help, labels)
}

// NewHistogram registers a latency histogram in the Default registry
// (nil bounds means LatencyBuckets).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, nil, bounds)
}

// NewHistogramL registers a labeled latency histogram in the Default
// registry.
func NewHistogramL(name, help string, labels Labels, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, labels, bounds)
}

// checkName enforces the Prometheus metric-name charset.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("metric name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("metric name %q contains %q", name, c)
		}
	}
	return nil
}

// escapeLabel escapes a label value for the text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// renderLabels renders {k="v",...}, optionally appending an le bound
// (leMode: 0 none, 1 finite bound, 2 +Inf). Empty set without le
// renders as "".
func renderLabels(ls []labelPair, le string, leMode int) string {
	if len(ls) == 0 && leMode == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, lp := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", lp.k, escapeLabel(lp.v))
	}
	if leMode != 0 {
		if len(ls) > 0 {
			b.WriteByte(',')
		}
		if leMode == 2 {
			b.WriteString(`le="+Inf"`)
		} else {
			fmt.Fprintf(&b, "le=%q", le)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float without the exponent noise %v gives
// round integers.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders every registered instrument in the Prometheus text
// exposition format (version 0.0.4): families grouped, HELP/TYPE lines
// once per family, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ins := make([]*instrument, len(r.ins))
	copy(ins, r.ins)
	r.mu.Unlock()

	// Group families: stable sort by name, registration order within.
	sort.SliceStable(ins, func(i, j int) bool { return ins[i].name < ins[j].name })

	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, in := range ins {
		if in.name != lastFamily {
			fmt.Fprintf(bw, "# HELP %s %s\n", in.name, strings.ReplaceAll(in.help, "\n", " "))
			fmt.Fprintf(bw, "# TYPE %s %s\n", in.name, in.kind)
			lastFamily = in.name
		}
		switch in.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", in.name, renderLabels(in.labels, "", 0), in.counter.Value())
		case kindGauge:
			v := 0.0
			if in.gaugeFn != nil {
				v = in.gaugeFn()
			} else {
				v = in.gauge.Value()
			}
			fmt.Fprintf(bw, "%s%s %s\n", in.name, renderLabels(in.labels, "", 0), formatValue(v))
		case kindHistogram:
			s := in.hist.Snapshot()
			cum := int64(0)
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(bw, "%s_bucket%s %d\n", in.name, renderLabels(in.labels, formatValue(bound), 1), cum)
			}
			cum += s.Counts[len(s.Bounds)]
			fmt.Fprintf(bw, "%s_bucket%s %d\n", in.name, renderLabels(in.labels, "", 2), cum)
			fmt.Fprintf(bw, "%s_sum%s %s\n", in.name, renderLabels(in.labels, "", 0), formatValue(s.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", in.name, renderLabels(in.labels, "", 0), cum)
		}
	}
	return bw.Flush()
}
