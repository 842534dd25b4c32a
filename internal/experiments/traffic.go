package experiments

import (
	"context"
	"fmt"

	"tkij/internal/core"
	"tkij/internal/datagen"
	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/topbuckets"
)

// trafficCollection builds the simulated firewall-connection dataset
// used by the §4.3 experiments.
func trafficCollection(n int, seed int64) *interval.Collection {
	return datagen.Traffic("connections", n, seed, datagen.TrafficConfig{})
}

// Fig12DataDistribution reproduces Figure 12: the distribution of start
// points and lengths of the (simulated) network traffic data, as
// percentage histograms, plus the §4.3.1 summary statistics.
func Fig12DataDistribution(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.size(50000)
	c := trafficCollection(n, 91)
	s := c.ComputeStats()

	summary := &Table{
		ID:      "fig12-summary",
		Title:   "Traffic dataset summary",
		Columns: []string{"intervals", "min-len", "max-len", "avg-len"},
		Note:    "paper (real firewall log): 3,636,814 intervals; lengths min 1, max 86,459, avg 54s",
		Rows: [][]string{{
			fmt.Sprintf("%d", s.Count), fmt.Sprintf("%d", s.MinLength),
			fmt.Sprintf("%d", s.MaxLength), f2(s.AvgLength),
		}},
	}

	starts := make([]int64, c.Len())
	lengths := make([]int64, c.Len())
	var maxLen int64
	for i, iv := range c.Items {
		starts[i] = iv.Start
		lengths[i] = iv.Length()
		if lengths[i] > maxLen {
			maxLen = lengths[i]
		}
	}
	const bins = 10
	hs := datagen.Histogram(starts, s.MaxEnd, bins)
	hl := datagen.Histogram(lengths, maxLen, bins)
	ta := &Table{ID: "fig12a", Title: "Start point distribution (% tuples per 10% bin)",
		Columns: []string{"bin(%max)", "%tuples"},
		Note:    "paper: bursty, bins spread over ~2 orders of magnitude"}
	tb := &Table{ID: "fig12b", Title: "Length distribution (% tuples per 10% bin)",
		Columns: []string{"bin(%max)", "%tuples"},
		Note:    "paper: heavy tail, first bin dominates on a log scale"}
	for b := 0; b < bins; b++ {
		label := fmt.Sprintf("%d-%d", b*10, (b+1)*10)
		ta.Rows = append(ta.Rows, []string{label, f3(hs[b])})
		tb.Rows = append(tb.Rows, []string{label, f3(hl[b])})
	}
	return []*Table{summary, ta, tb}, nil
}

// trafficQueries are the seven queries of Figures 13/14.
func trafficQueries(avg float64) []*query.Query {
	env := query.Env{Params: scoring.P3, Avg: avg}
	return queriesByName(env, "Qb,b", "Qf,b", "Qo,o", "Qo,m", "Qs,f,m", "QjB,jB", "QsM,sM")
}

// Fig13TrafficScalability reproduces Figure 13: total running time of
// the seven queries on traffic samples of growing size (the paper draws
// 5%-35% samples of its log; we scale the simulated collection by the
// same ratios). Each collection is copied three times for 3-way
// self-joins, as in §4.3.1.
func Fig13TrafficScalability(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	const g = 15
	k := cfg.k(100)
	t := &Table{
		ID:      "fig13",
		Title:   "Traffic data scalability: total running time (ms)",
		Columns: []string{"|Ci|", "query", "time(ms)", "nonempty-buckets", "|Ωk,S|"},
		Note:    "g=15 (paper 40), k=100, P3, loose; paper: more non-empty buckets at larger samples drives TopBuckets cost, Qs,f,m steepest",
	}
	// The paper's samples span 0.58e6..2.31e6 — ratio 1 : 4.
	for _, base := range []int{3000, 6000, 9000, 12000} {
		n := cfg.size(base)
		c := trafficCollection(n, 97)
		avg := interval.AvgLength(c)
		for _, q := range trafficQueries(avg) {
			e, err := core.NewEngine([]*interval.Collection{c}, core.Options{
				Granules: g, K: k, Reducers: cfg.Reducers,
				Strategy: topbuckets.Loose, Distribution: distribute.AlgDTB,
			})
			if err != nil {
				return nil, err
			}
			report, err := e.ExecuteMapped(ctx, q, selfMapping(q.NumVertices))
			if err != nil {
				return nil, err
			}
			buckets := len(e.Matrices()[0].Buckets())
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), q.Name, ms(report.Total),
				fmt.Sprintf("%d", buckets), fmt.Sprintf("%d", len(report.TopBuckets.Selected)),
			})
			cfg.logf("  fig13 %s |Ci|=%d done", q.Name, n)
		}
	}
	return []*Table{t}, nil
}

// Fig14TrafficEffectOfK reproduces Figure 14: running time vs k on the
// traffic data. The paper observes near-constant time up to k = 5000 and
// slow growth beyond, with Qo,o's selected-combination count jumping.
func Fig14TrafficEffectOfK(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	const g = 15
	n := cfg.size(6000)
	c := trafficCollection(n, 101)
	avg := interval.AvgLength(c)
	queries := trafficQueries(avg)
	t := &Table{
		ID:      "fig14",
		Title:   "Traffic data: total running time (ms) vs k",
		Columns: append([]string{"k"}, namesOf(queries)...),
		Note:    fmt.Sprintf("|Ci|=%d, g=%d, P3, loose; paper: near-constant to k=5000, slow growth after", n, g),
	}
	for _, baseK := range []int{10, 100, 1000, 5000} {
		k := cfg.k(baseK)
		row := []string{fmt.Sprintf("%d", k)}
		for _, q := range queries {
			e, err := core.NewEngine([]*interval.Collection{c}, core.Options{
				Granules: g, K: k, Reducers: cfg.Reducers,
				Strategy: topbuckets.Loose, Distribution: distribute.AlgDTB,
			})
			if err != nil {
				return nil, err
			}
			report, err := e.ExecuteMapped(ctx, q, selfMapping(q.NumVertices))
			if err != nil {
				return nil, err
			}
			row = append(row, ms(report.Total))
		}
		t.Rows = append(t.Rows, row)
		cfg.logf("  fig14 k=%s done", row[0])
	}
	return []*Table{t}, nil
}
