package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/solver"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// checkEdgeUB asserts that every combination the report's pass read
// carries, for every query edge, the UB of solver.PairBounds over the
// edge's two bucket boxes at grids (vertex v reads collection
// mapping[v]), bit for bit: the one pair bound the plan solved is the
// one the join bounds the edge by.
func checkEdgeUB(t *testing.T, what string, r *Report, mapping []int, grids []stats.Grid) {
	t.Helper()
	read := r.Join.Locals[0].CombosAssigned
	if read == 0 {
		t.Fatalf("%s: the pass read no combination", what)
	}
	for i := 0; i < read; i++ {
		c, _ := r.TopBuckets.At(i)
		if len(c.EdgeUB) != len(r.Query.Edges) {
			t.Fatalf("%s: combination %d carries %d edge UBs for %d edges", what, i, len(c.EdgeUB), len(r.Query.Edges))
		}
		for ei, e := range r.Query.Edges {
			_, want := solver.PairBounds(e.Pred,
				topbuckets.BoxOf(grids[mapping[e.From]], c.Buckets[e.From]),
				topbuckets.BoxOf(grids[mapping[e.To]], c.Buckets[e.To]))
			if math.Float64bits(c.EdgeUB[ei]) != math.Float64bits(want) {
				t.Fatalf("%s: combination %d, edge %d: edge UB %v, PairBounds %v", what, i, ei, c.EdgeUB[ei], want)
			}
		}
	}
}

// Every pair bound the join reads lives with the plan: on the cold pass,
// on a warm hit, and on a hit by an isomorphic relabeling of the shape,
// each combination read carries the pair UBs of its own edges.
func TestBoundMemoLivesWithThePlan(t *testing.T) {
	cols := synthCols(3, 60, 31)
	q := query.Qom(query.Env{Params: scoring.P1})
	e, err := NewEngine(cols, Options{Granules: 8, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	grids := pinnedGrids(t, e)
	cold, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeUB(t, "cold", cold, []int{0, 1, 2}, grids)
	warm, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PlanCacheHit {
		t.Fatal("second execution was not a plan-cache hit")
	}
	checkEdgeUB(t, "warm", warm, []int{0, 1, 2}, grids)

	// The same chain with its vertices labeled back to front (and the
	// mapping permuted along): the hit reads the plan translated into
	// this labeling.
	rev, err := query.New("Qo,m-reversed", 3, []query.Edge{
		{From: 2, To: 1, Pred: q.Edges[0].Pred},
		{From: 1, To: 0, Pred: q.Edges[1].Pred},
	}, q.Agg)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := e.ExecuteMapped(context.Background(), rev, []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !iso.PlanCacheHit {
		t.Fatal("relabeled shape missed the plan cache")
	}
	checkEdgeUB(t, "relabeled", iso, []int{2, 1, 0}, grids)
	if !join.ScoreMultisetEqual(iso.Results, cold.Results, 1e-9) {
		t.Fatal("relabeled shape returned a different top-k score multiset")
	}
}

func pinnedGrids(t *testing.T, e *Engine) []stats.Grid {
	t.Helper()
	pin, err := e.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	grids := make([]stats.Grid, len(pin.Matrices()))
	for i, m := range pin.Matrices() {
		grids[i] = m.Grid()
	}
	return grids
}

// An out-of-range append widens a boundary granule, which changes the
// box of every bucket in it. The plan is then planned again, and its
// edge UBs are those of the widened boxes: the execution after the
// widening reads at least one combination whose box moved, carries
// PairBounds over the new boxes on every combination it reads, and
// answers as an engine without a plan cache does.
func TestWideningReplansWithFreshMemo(t *testing.T) {
	q := query.Qom(query.Env{Params: scoring.P1})
	const k = 9
	widen := []interval.Interval{{ID: 9003, Start: -8000, End: -7000}}
	e, err := NewEngine(synthCols(3, 45, 23), Options{Granules: 6, K: k})
	if err != nil {
		t.Fatal(err)
	}
	mapping := []int{0, 1, 2}
	before := pinnedGrids(t, e)
	first, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeUB(t, "first", first, mapping, before)

	if _, err := e.Append(0, widen); err != nil {
		t.Fatal(err)
	}
	after := pinnedGrids(t, e)
	widened, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if widened.PlanOutcome() != "miss" {
		t.Fatalf("post-append execution was a %s, want a miss", widened.PlanOutcome())
	}
	checkEdgeUB(t, "widened", widened, mapping, after)
	moved := false
	for i := 0; i < widened.Join.Locals[0].CombosAssigned; i++ {
		c, _ := widened.TopBuckets.At(i)
		for v, b := range c.Buckets {
			moved = moved || topbuckets.BoxOf(before[v], b) != topbuckets.BoxOf(after[v], b)
		}
	}
	if !moved {
		t.Fatal("the re-plan reads no combination whose box the widening moved — the test lost its subject")
	}

	uncached, err := NewEngine(synthCols(3, 45, 23), Options{Granules: 6, K: k, PlanCache: plancache.Options{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uncached.Append(0, widen); err != nil {
		t.Fatal(err)
	}
	want, err := uncached.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(widened.Results, want.Results) {
		t.Fatal("execution after the widening diverged from an engine without a plan cache")
	}
	again, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.PlanCacheHit {
		t.Fatalf("third execution was a %s, want a hit", again.PlanOutcome())
	}
	checkEdgeUB(t, "hit after the widening", again, mapping, after)
}

// ROADMAP's allocation gate for the warm path: a plan-cache hit of Qo,m
// allocates a bounded number of objects — nothing per combination (no
// bound solve, no per-reducer sort copy) and nothing per probe.
func TestWarmExecuteAllocBudget(t *testing.T) {
	cols := synthCols(3, 400, 37)
	q := query.Qom(query.Env{Params: scoring.P1})
	e, err := NewEngine(cols, Options{Granules: 12, K: 20, Reducers: 8})
	if err != nil {
		t.Fatal(err)
	}
	mapping := []int{0, 1, 2}
	var rep *Report
	run := func() {
		r, err := e.ExecuteMapped(context.Background(), q, mapping)
		if err != nil {
			t.Fatal(err)
		}
		rep = r
	}
	run() // plan miss, index builds
	run() // remaining lazily built indexes
	allocs := testing.AllocsPerRun(10, run)
	selected := len(rep.TopBuckets.Drain())
	if selected < 200 {
		t.Fatalf("only %d combinations selected — too few for a per-combination allocation to show", selected)
	}
	if allocs >= 5000 || allocs >= float64(selected) {
		t.Fatalf("warm ExecuteMapped allocates %.0f objects over %d selected combinations, want < 5000 and under one per combination",
			allocs, selected)
	}
	t.Logf("warm ExecuteMapped: %.0f allocations, %d selected combinations", allocs, selected)
}

// The plan-miss twin of TestWarmExecuteAllocBudget: with the plan cache
// off every execution builds its plan again, and still allocates
// O(|Ω_k,S|) objects, not O(|Ω|) — the walk, the selection and the
// bound solver's branch-and-bound allocate nothing per combination or
// node.
func TestPlanMissAllocBudget(t *testing.T) {
	cols := synthCols(3, 1500, 41)
	q := query.Qom(query.Env{Params: scoring.P1})
	e, err := NewEngine(cols, Options{Granules: 20, K: 100, Reducers: 8, PlanCache: plancache.Options{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	mapping := []int{0, 1, 2}
	var r *Report
	run := func() {
		if r, err = e.ExecuteMapped(context.Background(), q, mapping); err != nil {
			t.Fatal(err)
		}
	}
	run() // index builds
	allocs := testing.AllocsPerRun(5, run)
	if r.PlanCacheHit {
		t.Fatal("an execution with the plan cache disabled reported a hit")
	}
	omega := r.TopBuckets.TotalCombos
	if omega < 50000 {
		t.Fatalf("|Ω| = %g — too few combinations for a per-combination allocation to show", omega)
	}
	if allocs >= omega/4 {
		t.Fatalf("a plan-miss execution allocates %.0f objects over |Ω| = %g (%d combinations read), want < |Ω|/4",
			allocs, omega, r.TopBuckets.Len())
	}
	t.Logf("plan-miss ExecuteMapped: %.0f allocations, |Ω| = %g, %d combinations read", allocs, omega, r.TopBuckets.Len())
}
