// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each driver returns Tables whose rows mirror the
// series the paper plots; cmd/tkij-bench prints them and bench_test.go
// wraps them as benchmarks.
//
// Dataset sizes are scaled down from the paper's cluster-scale runs
// (millions of intervals on 8 Hadoop nodes) to single-process scale,
// preserving the ratios between configurations — the experiments
// reproduce *shapes* (who wins, by what factor, where crossovers fall),
// not absolute seconds. The Scale knob in Config restores larger sizes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"tkij/internal/core"
	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/topbuckets"
)

// Config controls experiment scale and parallelism.
type Config struct {
	// Scale multiplies dataset sizes (1 = default bench scale).
	Scale float64
	// Reducers is r (paper: 24). Default 24.
	Reducers int
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Reducers <= 0 {
		c.Reducers = 24
	}
	return c
}

func (c Config) size(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 60 {
		n = 60
	}
	return n
}

// k scales a result-count parameter with the dataset so that k stays
// well below the number of candidate results, as in the paper's setups
// (k = 100 against millions of candidates). Without this, shrunken
// smoke-test datasets would force exhaustive enumeration of low-scoring
// tuples just to fill the result list.
func (c Config) k(base int) int {
	k := int(float64(base) * c.Scale)
	if k < 5 {
		k = 5
	}
	return k
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Table is one reproduced figure or table.
type Table struct {
	// ID is the paper artifact ("fig8a", "fig11b", "sec4.2.6", ...).
	ID string
	// Title describes the content.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the measured series.
	Rows [][]string
	// Note records scaling or interpretation caveats.
	Note string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   note: %s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintln(w, "  "+b.String())
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// f2/f3 render floats.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// engineFor builds an engine with the experiment's common settings.
func engineFor(cols []*interval.Collection, g, k int, strat topbuckets.Strategy,
	alg distribute.Algorithm, cfg Config, local join.LocalOptions) (*core.Engine, error) {
	return core.NewEngine(cols, core.Options{
		Granules:     g,
		K:            k,
		Reducers:     cfg.Reducers,
		Strategy:     strat,
		Distribution: alg,
		Local:        local,
	})
}

// selfMapping returns [0, 0, ..., 0] for self-join experiments.
func selfMapping(n int) []int { return make([]int, n) }

// queriesByName resolves a list of Table-1 query names.
func queriesByName(env query.Env, names ...string) []*query.Query {
	qs := make([]*query.Query, len(names))
	for i, n := range names {
		q, err := query.ByName(n, env)
		if err != nil {
			panic(err)
		}
		qs[i] = q
	}
	return qs
}

// registry lists every driver in paper order. It is the only place an
// experiment id is written: All, ByID, IDs, the tkij-bench flag help
// and the smoke test all derive from it.
var registry = []struct {
	ID  string
	Run func(context.Context, Config) ([]*Table, error)
}{
	{"stats", StatsCollection},
	{"fig7", Fig7ScoreDistribution},
	{"fig8", Fig8Workload},
	{"fig9", Fig9Strategies},
	{"fig10", Fig10Granules},
	{"fig11", Fig11Scalability},
	{"sec4.2.6", EffectOfKSynthetic},
	{"fig12", Fig12DataDistribution},
	{"fig13", Fig13TrafficScalability},
	{"fig14", Fig14TrafficEffectOfK},
	{"ablation", Ablations},
}

// IDs returns the experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, d := range registry {
		ids[i] = d.ID
	}
	return ids
}

// All runs every experiment and returns the tables in paper order.
func All(ctx context.Context, cfg Config) ([]*Table, error) {
	var all []*Table
	for _, d := range registry {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.ID, err)
		}
		cfg.logf("running %s ...", d.ID)
		ts, err := d.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.ID, err)
		}
		all = append(all, ts...)
	}
	return all, nil
}

// ByID runs the experiment registered under id, or every experiment
// for "all".
func ByID(ctx context.Context, id string, cfg Config) ([]*Table, error) {
	if id == "all" {
		return All(ctx, cfg)
	}
	for _, d := range registry {
		if d.ID == id {
			return d.Run(ctx, cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %s or all)", id, strings.Join(IDs(), ", "))
}
