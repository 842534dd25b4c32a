package core

import (
	"context"
	"sync"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// Warm-engine regression: the second execution of a query must reuse
// the store's memoized R-trees instead of rebuilding them.
func TestWarmEngineReusesStore(t *testing.T) {
	cols := synthCols(3, 120, 17)
	env := query.Env{Params: scoring.P1}
	q := query.Qom(env)
	e, err := NewEngine(cols, Options{Granules: 6, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !join.ScoreMultisetEqual(cold.Results, warm.Results, 1e-9) {
		t.Fatal("warm run changed the answer")
	}
	if cold.TreesBuilt == 0 {
		t.Fatal("cold run built no R-trees — nothing was exercised")
	}
	if warm.TreesBuilt != 0 {
		t.Fatalf("warm run rebuilt %d R-trees; they should be memoized in the store", warm.TreesBuilt)
	}
	if warm.TreesReused == 0 {
		t.Fatal("warm run reports no memoized R-tree reuse")
	}
}

// One engine, many goroutines: concurrent Execute calls (first ones
// racing to trigger the single-flight preparation) must all return the
// exact answer. Run under -race this doubles as the data-race check the
// serving refactor is accountable to.
func TestConcurrentExecute(t *testing.T) {
	cols := synthCols(3, 60, 23)
	env := query.Env{Params: scoring.P1, Avg: 45}
	queries := []*query.Query{query.Qbb(env), query.Qoo(env), query.Qom(env), query.Qss(env)}
	const k = 8
	e, err := NewEngine(cols, Options{Granules: 5, K: k, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	exact := make([][]join.Result, len(queries))
	for i, q := range queries {
		exact[i], err = join.Exhaustive(q, cols, k)
		if err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	bad := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				qi := (g + rep) % len(queries)
				report, err := e.Execute(context.Background(), queries[qi])
				if err != nil {
					errs[g] = err
					return
				}
				if !join.ScoreMultisetEqual(report.Results, exact[qi], 1e-9) {
					bad[g] = queries[qi].Name
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if bad[g] != "" {
			t.Fatalf("goroutine %d: query %s diverged from exhaustive under concurrency", g, bad[g])
		}
	}
	if e.StatsMetrics == nil || e.StatsDuration <= 0 {
		t.Fatal("offline preparation not recorded")
	}
	if st := e.Store(); st == nil || st.Intervals() != 180 {
		t.Fatal("store missing or incomplete after concurrent executes")
	}
}

// Regression: phase durations are measured independently inside
// join.Run; none may come out negative (JoinTime used to be an outer
// window minus the merge job's internal Total, which under scheduler
// contention could exceed it).
func TestPhaseDurationsNonNegative(t *testing.T) {
	cols := synthCols(3, 80, 37)
	e, err := NewEngine(cols, Options{Granules: 5, K: 8, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Qbb(query.Env{Params: scoring.P1})
	for i := 0; i < 5; i++ {
		report, err := e.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if report.TopBucketsTime < 0 || report.DistributeTime < 0 ||
			report.JoinTime < 0 || report.MergeTime < 0 || report.Total < 0 {
			t.Fatalf("negative phase duration: %+v", report)
		}
		if report.JoinTime+report.MergeTime > report.Total {
			t.Fatalf("join %v + merge %v exceed total %v", report.JoinTime, report.MergeTime, report.Total)
		}
	}
}

// Regression: stats.ApplyUpdate mutates a matrix the resident store was
// built from; without invalidation a prepared engine keeps serving the
// pre-update buckets. After InvalidateStore the next query must see the
// updated data — and must get there without re-running the statistics
// job.
func TestInvalidateStoreServesFreshData(t *testing.T) {
	cols := synthCols(3, 25, 19)
	const k = 8
	e, err := NewEngine(cols, Options{Granules: 5, K: k, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Qss(query.Env{Params: scoring.P1})
	before, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	metricsBefore := e.StatsMetrics

	// Insert a perfect s-starts chain — shared start, ends spaced a full
	// greater-ramp apart, well inside the granulation span so the fixed
	// granulation stays a valid partition — into each collection, then
	// maintain the matrices. Random sparse data almost never scores 1.0
	// on Qs,s (it needs near-equal starts twice), so this provably
	// changes the top-k.
	inserts := [][]interval.Interval{
		{{ID: 900001, Start: 1000, End: 1010}},
		{{ID: 900002, Start: 1000, End: 1020}},
		{{ID: 900003, Start: 1000, End: 1030}},
	}
	for i, ins := range inserts {
		cols[i].Items = append(cols[i].Items, ins...)
		if err := stats.ApplyUpdate(e.Matrices()[i], ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	oracle, err := join.Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	if join.ScoreMultisetEqual(oracle, before.Results, 1e-9) {
		t.Fatal("test setup broken: the inserted chain did not change the top-k")
	}

	// Without invalidation the engine still serves the stale partition.
	stale, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !join.ScoreMultisetEqual(stale.Results, before.Results, 1e-9) {
		t.Fatal("pre-invalidation query did not serve the (stale) resident store")
	}

	e.InvalidateStore()
	fresh, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !join.ScoreMultisetEqual(fresh.Results, oracle, 1e-9) {
		t.Fatal("post-InvalidateStore query does not see the inserted data")
	}
	if e.StatsMetrics != metricsBefore {
		t.Fatal("store rebuild re-ran the statistics job; matrices are maintained incrementally")
	}
}

// PrepareStats must be single-flighted: many concurrent callers, one
// build, and everyone observes the same matrices and store.
func TestPrepareSingleFlight(t *testing.T) {
	cols := synthCols(2, 80, 29)
	e, err := NewEngine(cols, Options{Granules: 5, K: 5, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.PrepareStats(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := e.Store(); st.Snapshot().Buckets == 0 {
		t.Fatal("store empty after PrepareStats")
	}
	if got := e.Store().Intervals(); got != 160 {
		t.Fatalf("store partitioned %d intervals, want 160", got)
	}
}
