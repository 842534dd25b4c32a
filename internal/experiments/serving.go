package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tkij/internal/datagen"
	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/topbuckets"
)

// Serving measures the multi-query serving path the dataset-resident
// bucket store enables (beyond the paper, toward the production
// north-star): one engine, one offline preparation, then repeated and
// concurrent executions of Table-1 queries. The cold run pays the lazy
// R-tree builds; warm runs route the same bucket references but reuse
// every memoized tree, and concurrent runs share both the store and the
// cross-reducer threshold.
func Serving(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.size(20000)
	k := cfg.k(100)
	const g = 20
	cols := []*interval.Collection{
		datagen.Uniform("C1", n, 91), datagen.Uniform("C2", n, 92), datagen.Uniform("C3", n, 93),
	}
	engine, err := engineFor(cols, g, k, topbuckets.Loose, distribute.AlgDTB, cfg, join.LocalOptions{})
	if err != nil {
		return nil, err
	}
	prepStart := time.Now()
	if err := engine.PrepareStats(); err != nil {
		return nil, err
	}
	prep := time.Since(prepStart)

	env := query.Env{Params: scoring.P1}
	queries := queriesByName(env, "Qb,b", "Qo,m", "Qs,m")

	t := &Table{
		ID:      "serving",
		Title:   fmt.Sprintf("Multi-query serving on one warm engine (|Ci|=%d, k=%d, offline prep %s ms)", n, k, ms(prep)),
		Columns: []string{"query", "run", "join(ms)", "total(ms)", "trees-built", "trees-reused", "routed-refs"},
		Note:    "cold pays lazy R-tree builds; warm runs reuse the dataset-resident store end to end",
	}
	for _, q := range queries {
		for run := 0; run < 3; run++ {
			report, err := engine.Execute(ctx, q)
			if err != nil {
				return nil, err
			}
			label := "warm"
			if run == 0 {
				label = "cold"
			}
			t.Rows = append(t.Rows, []string{
				q.Name, fmt.Sprintf("%s#%d", label, run),
				ms(report.JoinTime), ms(report.Total),
				fmt.Sprintf("%d", report.TreesBuilt), fmt.Sprintf("%d", report.TreesReused),
				fmt.Sprintf("%d", report.Join.RoutedBucketEntries),
			})
		}
		cfg.logf("  serving %s done", q.Name)
	}

	// Concurrent serving: every query in flight at once on the shared
	// engine, several rounds per goroutine.
	tc := &Table{
		ID:      "serving-concurrent",
		Title:   "Concurrent query serving (one engine, one goroutine per query, 3 rounds each)",
		Columns: []string{"goroutines", "rounds", "wall(ms)", "sum-exec(ms)", "speedup"},
		Note:    "speedup = sum of per-execution times / wall time; >1 means true parallel serving",
	}
	const rounds = 3
	var wg sync.WaitGroup
	execTimes := make([]time.Duration, len(queries))
	errs := make([]error, len(queries))
	wallStart := time.Now()
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				report, err := engine.Execute(ctx, q)
				if err != nil {
					errs[i] = err
					return
				}
				execTimes[i] += report.Total
			}
		}(i, q)
	}
	wg.Wait()
	wall := time.Since(wallStart)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var sum time.Duration
	for _, d := range execTimes {
		sum += d
	}
	speedup := 0.0
	if wall > 0 {
		speedup = float64(sum) / float64(wall)
	}
	tc.Rows = append(tc.Rows, []string{
		fmt.Sprintf("%d", len(queries)), fmt.Sprintf("%d", rounds),
		ms(wall), ms(sum), f2(speedup),
	})
	return []*Table{t, tc}, nil
}
