package core

import (
	"context"
	"testing"

	"tkij/internal/baselines"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// The per-edge bound memo lives with the cached plan: the first
// execution of a shape solves its bounds, every later one at an
// unchanged epoch — the same query or an isomorphic relabeling of it —
// solves none.
func TestBoundMemoLivesWithThePlan(t *testing.T) {
	cols := synthCols(3, 60, 31)
	q := query.Qom(query.Env{Params: scoring.P1})
	e, err := NewEngine(cols, Options{Granules: 8, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Join.BoundSolves == 0 {
		t.Fatal("first execution of a shape solved no edge bounds")
	}
	warm, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PlanCacheHit {
		t.Fatal("second execution was not a plan-cache hit")
	}
	if warm.Join.BoundSolves != 0 || warm.Join.BoundReuses == 0 {
		t.Fatalf("second execution on an unchanged epoch ran %d bound solves (%d reuses), want 0 solves",
			warm.Join.BoundSolves, warm.Join.BoundReuses)
	}

	// The same chain with its vertices labeled back to front (and the
	// mapping permuted along): keys are the solver's full input, so the
	// memo serves it untranslated.
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
	if iso.Join.BoundSolves != 0 {
		t.Fatalf("isomorphic relabeling of a cached shape ran %d bound solves, want 0", iso.Join.BoundSolves)
	}
	if !join.ScoreMultisetEqual(iso.Results, cold.Results, 1e-9) {
		t.Fatal("relabeled shape returned a different top-k score multiset")
	}
}

// boundInput is one per-edge bound's complete solver input.
type boundInput struct {
	sig string
	box [8]float64
}

// edgeBoundInputs is the set of distinct solver inputs the join needs for
// the selected combinations of a report, under the given per-collection
// grids (vertex v reads collection v in these tests).
func edgeBoundInputs(r *Report, grids []stats.Grid) map[boundInput]bool {
	keys := make(map[boundInput]bool)
	for _, cb := range r.TopBuckets.Selected {
		for _, e := range r.Query.Edges {
			fb, tb := cb.Buckets[e.From], cb.Buckets[e.To]
			k := boundInput{sig: e.Pred.Signature()}
			k.box[0], k.box[1] = grids[e.From].Bounds(fb.StartG)
			k.box[2], k.box[3] = grids[e.From].Bounds(fb.EndG)
			k.box[4], k.box[5] = grids[e.To].Bounds(tb.StartG)
			k.box[6], k.box[7] = grids[e.To].Bounds(tb.EndG)
			keys[k] = true
		}
	}
	return keys
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
// box — hence the memo key — of every bound over a boundary bucket. The
// plan is then planned again with a memo of its own: the next execution
// solves every bound its plan reads, including those whose box did not
// change, and stays exact. Pruning is disabled so that every selected
// combination is processed on every run, and there is one reducer so
// that no two race to solve one key: the solve counts are then exact
// rather than bounds.
func TestWideningReplansWithFreshMemo(t *testing.T) {
	cols := synthCols(3, 45, 23)
	q := query.Qbb(query.Env{Params: scoring.P1})
	const k = 9
	e, err := NewEngine(cols, Options{Granules: 6, K: k, Reducers: 1,
		Local: join.LocalOptions{DisablePruning: true}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	before := edgeBoundInputs(first, pinnedGrids(t, e))
	if int(first.Join.BoundSolves) != len(before) {
		t.Fatalf("first execution solved %d bounds over %d distinct inputs", first.Join.BoundSolves, len(before))
	}

	if _, err := e.Append(0, []interval.Interval{{ID: 9003, Start: -8000, End: -7000}}); err != nil {
		t.Fatal(err)
	}
	widened, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if widened.PlanOutcome() != "miss" {
		t.Fatalf("post-append execution was a %s, want a miss", widened.PlanOutcome())
	}
	inputs := edgeBoundInputs(widened, pinnedGrids(t, e))
	kept := 0
	for key := range inputs {
		if before[key] {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("the re-plan reads no bound input of its predecessor — a fresh memo cannot show")
	}
	if int(widened.Join.BoundSolves) != len(inputs) {
		t.Fatalf("execution after the widening ran %d bound solves, want all %d distinct inputs (%d unchanged since the first plan)",
			widened.Join.BoundSolves, len(inputs), kept)
	}
	want, err := baselines.Naive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	if !join.ScoreMultisetEqual(widened.Results, want, 1e-9) {
		t.Fatal("execution after the widening diverged from the exhaustive oracle")
	}
	again, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.PlanCacheHit || again.Join.BoundSolves != 0 {
		t.Fatalf("third execution: hit=%t, %d bound solves; want a hit with none", again.PlanCacheHit, again.Join.BoundSolves)
	}
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
	var selected int
	run := func() {
		r, err := e.ExecuteMapped(context.Background(), q, mapping)
		if err != nil {
			t.Fatal(err)
		}
		selected = len(r.TopBuckets.Selected)
	}
	run() // plan miss, bound solves, index builds
	run() // remaining lazily built indexes
	allocs := testing.AllocsPerRun(10, run)
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
// off every execution runs TopBuckets and DTB again, and still allocates
// O(|Ω_k,S|) objects, not O(|Ω|) — enumeration, selection and the bound
// solver's branch-and-bound allocate nothing per combination or node.
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
		t.Fatalf("a plan-miss execution allocates %.0f objects over |Ω| = %g (%d selected), want < |Ω|/4",
			allocs, omega, len(r.TopBuckets.Selected))
	}
	t.Logf("plan-miss ExecuteMapped: %.0f allocations, |Ω| = %g, %d selected", allocs, omega, len(r.TopBuckets.Selected))
}
