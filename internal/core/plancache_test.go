package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"tkij/internal/baselines"
	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

// TestPlanCacheHitSkipsPlanning: a repeated query shape is served from
// the plan cache (skipping the TopBuckets solve and the assignment),
// returns the identical answer, and reports the outcome.
func TestPlanCacheHitSkipsPlanning(t *testing.T) {
	cols := synthCols(3, 40, 21)
	q := query.Qom(query.Env{Params: scoring.P1})
	e, err := NewEngine(cols, Options{Granules: 8, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanCacheHit || cold.PlanRevalidated {
		t.Fatalf("first execution reported hit=%t revalidated=%t", cold.PlanCacheHit, cold.PlanRevalidated)
	}
	warm, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PlanCacheHit {
		t.Fatal("repeated shape at an unchanged epoch was not a cache hit")
	}
	if warm.PlanSavedTime <= 0 {
		t.Fatal("hit did not report the planning time it saved")
	}
	if warm.TopBuckets != cold.TopBuckets {
		t.Fatal("hit did not reuse the cached plan objects")
	}
	if !join.ScoreMultisetEqual(warm.Results, cold.Results, 1e-9) {
		t.Fatal("cached execution diverged from the cold one")
	}
	st := e.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", st)
	}
}

// TestPlanCacheIsomorphicShapesShareEntry: a query with relabeled
// vertices (and the execution mapping permuted along) hits the entry
// planned for the original. Reordered edges are TestEdgeOrderSharesPlan's.
func TestPlanCacheIsomorphicShapesShareEntry(t *testing.T) {
	cols := synthCols(2, 40, 22)
	q1, err := query.New("orig", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	if err != nil {
		t.Fatal(err)
	}
	// Relabeled: vertex 0<->1 swapped, so the edge reverses and vertex
	// v now reads collection 1-v.
	q2, err := query.New("relabeled", 2, []query.Edge{
		{From: 1, To: 0, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cols, Options{Granules: 6, K: 8, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.ExecuteMapped(context.Background(), q2, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCacheHit {
		t.Fatal("isomorphic relabeled shape missed the cache")
	}
	if !join.ScoreMultisetEqual(r1.Results, r2.Results, 1e-9) {
		t.Fatal("isomorphic shapes returned different top-k score multisets")
	}
}

// TestEdgeOrderSharesPlan: a query that lists its edges in another order
// shares the plan key of the original although every vertex keeps its
// label, so the hit must map the plan's edge UBs across the two edge
// orders as it maps bucket tuples across vertex labelings. Pruning reads
// the edge UBs and the answer does not show a wrong mapping, so the hit
// must do exactly the work of a fresh engine's cold execution of the
// reordered query: the same ranked answer, tuples examined and partials
// pruned. Qs,f,m's three edges differ in predicate and end, under P1
// (k-th score at the ceiling) and under P2 (below it).
func TestEdgeOrderSharesPlan(t *testing.T) {
	cols := make([]*interval.Collection, 3)
	for i := range cols {
		cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), 3000, 4*7919+int64(i))
	}
	opts := Options{Granules: 20, K: 100}
	for _, ps := range []struct {
		name   string
		params scoring.PairParams
	}{{"P1", scoring.P1}, {"P2", scoring.P2}} {
		q := query.Qsfm(query.Env{Params: ps.params})
		reversed := slices.Clone(q.Edges)
		slices.Reverse(reversed)
		rq, err := query.New(q.Name+"-reversed", q.NumVertices, reversed, q.Agg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cols, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Execute(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		hit, err := e.Execute(context.Background(), rq)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.PlanCacheHit {
			t.Fatalf("%s: the reversed edge list missed the plan cache (%s)", ps.name, hit.PlanOutcome())
		}
		fresh, err := NewEngine(cols, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		want, err := fresh.Execute(context.Background(), rq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hit.Results, want.Results) {
			t.Fatalf("%s: the hit's answer differs from a fresh engine's", ps.name)
		}
		got, cold := hit.Join.Locals[0], want.Join.Locals[0]
		if got.TuplesExamined != cold.TuplesExamined || got.PartialsPruned != cold.PartialsPruned {
			t.Fatalf("%s: the hit examined %d tuples and pruned %d partials, a fresh engine %d and %d",
				ps.name, got.TuplesExamined, got.PartialsPruned, cold.TuplesExamined, cold.PartialsPruned)
		}
		t.Logf("%s: %d tuples, %d partials pruned", ps.name, got.TuplesExamined, got.PartialsPruned)
	}
}

// TestPlanCacheAcrossAppends: an epoch bump promotes a cached plan or
// plans it again, and either way the answers stay exact against the
// naive oracle — including out-of-range appends that widen the boundary
// granules.
func TestPlanCacheAcrossAppends(t *testing.T) {
	cols := synthCols(3, 45, 23)
	q := query.Qbb(query.Env{Params: scoring.P1})
	const k = 9
	e, err := NewEngine(cols, Options{Granules: 6, K: k, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	batches := [][]interval.Interval{
		// Interior appends into existing territory: pure promotion.
		{{ID: 9001, Start: 100, End: 140}, {ID: 9002, Start: 900, End: 960}},
		// Far out of range: clamps into boundary granules, widens the
		// grid, forces a full re-plan.
		{{ID: 9003, Start: -8000, End: -7000}, {ID: 9004, Start: 9000, End: 9800}},
	}
	for bi, batch := range batches {
		if _, err := e.Append(bi%2, batch); err != nil {
			t.Fatal(err)
		}
		report, err := e.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if report.PlanCacheHit {
			t.Fatalf("batch %d: post-append execution reported a plain hit", bi)
		}
		want, err := baselines.Naive(q, cols, k)
		if err != nil {
			t.Fatal(err)
		}
		if !join.ScoreMultisetEqual(report.Results, want, 1e-9) {
			t.Fatalf("batch %d: cached-plan engine diverged from the naive oracle", bi)
		}
	}
	if st := e.PlanCacheStats(); st.Revalidations == 0 {
		t.Fatalf("no revalidations recorded across appends: %+v", st)
	}
}

// TestPlanCacheDisabledEquivalence: with the cache disabled every
// execution plans cold, and the answers match the cached engine's.
func TestPlanCacheDisabledEquivalence(t *testing.T) {
	cols := synthCols(3, 35, 24)
	q := query.Qsm(query.Env{Params: scoring.P2})
	opts := Options{Granules: 7, K: 10, Reducers: 4}
	cached, err := NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsOff := opts
	optsOff.PlanCache = plancache.Options{Disabled: true}
	cold, err := NewEngine(cols, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rc, err := cached.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := cold.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if rd.PlanCacheHit || rd.PlanRevalidated {
			t.Fatal("disabled cache served a cached plan")
		}
		if !join.ScoreMultisetEqual(rc.Results, rd.Results, 1e-9) {
			t.Fatalf("run %d: cached vs cold top-k diverged", i)
		}
	}
	if st := cold.PlanCacheStats(); st.Entries != 0 {
		t.Fatalf("disabled cache retained entries: %+v", st)
	}
}

// TestReportPhaseTimingsSumWithinTotal is the double-counting
// regression test: on every path — cold, cache hit, revalidated — the
// four phase durations are disjoint sub-windows of Total, so their sum
// can never exceed it (a sum above Total means some wall time was
// attributed to two phases at once). A small absolute slack absorbs
// clock granularity.
func TestReportPhaseTimingsSumWithinTotal(t *testing.T) {
	const slack = time.Millisecond
	cols := synthCols(3, 40, 25)
	q := query.Qom(query.Env{Params: scoring.P1})
	e, err := NewEngine(cols, Options{Granules: 8, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkReport := func(stage string, r *Report) {
		t.Helper()
		sum := r.TopBucketsTime + r.DistributeTime + r.JoinTime + r.MergeTime
		if sum > r.Total+slack {
			t.Fatalf("%s: phase sum %v exceeds total %v (double-counted phase time)", stage, sum, r.Total)
		}
		for name, d := range map[string]time.Duration{
			"TopBucketsTime": r.TopBucketsTime, "DistributeTime": r.DistributeTime,
			"JoinTime": r.JoinTime, "MergeTime": r.MergeTime, "Total": r.Total,
		} {
			if d < 0 {
				t.Fatalf("%s: negative %s %v", stage, name, d)
			}
		}
	}

	cold, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkReport("cold", cold)

	hit, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.PlanCacheHit {
		t.Fatal("second run was not a hit")
	}
	checkReport("hit", hit)

	if _, err := e.Append(0, []interval.Interval{{ID: 9100, Start: 50, End: 70}}); err != nil {
		t.Fatal(err)
	}
	reval, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkReport("revalidated", reval)
}
