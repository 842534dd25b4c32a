package join

import (
	"context"
	"slices"
	"strings"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// Regression: a request with no combinations gives the merge zero
// inputs; Run must still return a non-nil (empty) result slice — not a
// nil slice that breaks callers ranging or JSON-encoding the output —
// and the local pass's one Locals entry, which did no work.
func TestRunNoCombinations(t *testing.T) {
	q := query.MustNew("empty", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	srcs := []Source{
		newMapSource(0, map[stats.BucketKey][]interval.Interval{}),
		newMapSource(1, map[stats.BucketKey][]interval.Interval{}),
	}
	out, err := runJoin(q, srcs, nil, 5, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results == nil {
		t.Fatal("Results is nil; want an empty non-nil slice")
	}
	if len(out.Results) != 0 {
		t.Fatalf("got %d results from no combinations", len(out.Results))
	}
	if len(out.Locals) != 1 {
		t.Fatalf("the local pass reports %d reducers, want 1", len(out.Locals))
	}
	if l := out.Locals[0]; l.CombosAssigned != 0 || l.CombosProcessed != 0 || l.TuplesExamined != 0 || l.ResultsReturned != 0 {
		t.Fatalf("Locals[0] = %+v for a pass over nothing", l)
	}
	if out.JoinDuration < 0 || out.MergeDuration < 0 {
		t.Fatalf("negative phase durations: join %v, merge %v", out.JoinDuration, out.MergeDuration)
	}
}

// Regression: when no score can reach the floor (Shared above 1, the
// shape of an empty selection), the pass must process no combination of
// a real plan and still return an empty, non-nil result slice.
func TestRunUnreachableFloor(t *testing.T) {
	cols := synthCols(3, 60, 31)
	ms := collect(t, cols, 5)
	q := query.Qom(query.Env{Params: scoring.P1})
	tb, err := topbuckets.Run(q, ms, 5, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Selected) == 0 {
		t.Fatal("the plan selected no combination: the test lost its subject")
	}
	srcs := storeSources(t, cols, ms)
	out, err := Run(context.Background(), &ReduceRequest{
		Query: q, Srcs: srcs, Plan: topbuckets.Listed(tb.Selected), K: 5,
		Shared: NewSharedFloor(1.1),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results == nil {
		t.Fatal("Results is nil under an unreachable floor; want an empty non-nil slice")
	}
	if len(out.Results) != 0 {
		t.Fatalf("floor 1.1 returned %d results", len(out.Results))
	}
	for _, l := range out.Locals {
		if l.CombosProcessed != 0 {
			t.Fatalf("reducer %d processed %d combinations under an unreachable floor", l.Reducer, l.CombosProcessed)
		}
	}
}

// A reducer stops at the first combination its threshold dominates, so
// a task listing combinations out of descending-UB order could skip live
// ones: RunTasks refuses it instead of re-sorting or running it, and
// likewise a combination missing its edge UBs.
func TestRunTasksRejectsUnsortedTask(t *testing.T) {
	q := query.MustNew("unsorted", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	bucket := func(col int) stats.Bucket { return stats.Bucket{Col: col, Count: 1} }
	combos := []topbuckets.Combo{
		{Buckets: []stats.Bucket{bucket(0), bucket(1)}, UB: 0.2, NbRes: 1, EdgeUB: []float64{0.2}},
		{Buckets: []stats.Bucket{bucket(0), bucket(1)}, UB: 0.9, NbRes: 1, EdgeUB: []float64{0.9}},
	}
	req := &ReduceRequest{
		Query: q,
		Srcs: []Source{
			newMapSource(0, map[stats.BucketKey][]interval.Interval{}),
			newMapSource(1, map[stats.BucketKey][]interval.Interval{}),
		},
		K: 1,
	}
	if _, err := RunTasks(context.Background(), req, combos, []ReducerTask{{Reducer: 0, Combos: []int{0, 1}}}); err == nil {
		t.Fatal("RunTasks ran a task whose combinations are in ascending-UB order")
	}
	if _, err := RunTasks(context.Background(), req, combos, []ReducerTask{{Reducer: 0, Combos: []int{1, 0}}}); err != nil {
		t.Fatalf("RunTasks refused a descending-UB task: %v", err)
	}
	// A reducer indexes its combination's edge UBs by query edge, so a
	// combination without them is refused up front too.
	combos[0].EdgeUB = nil
	if _, err := RunTasks(context.Background(), req, combos, []ReducerTask{{Reducer: 0, Combos: []int{1, 0}}}); err == nil {
		t.Fatal("RunTasks ran a combination that carries no edge UBs")
	}
}

// Run reads each combination's edge UBs by query edge, so a plan
// combination without them is an error, not an index panic, as in
// RunTasks.
func TestRunRejectsMissingEdgeUB(t *testing.T) {
	cols := synthCols(3, 60, 31)
	ms := collect(t, cols, 5)
	q := query.Qom(query.Env{Params: scoring.P1})
	tb, err := topbuckets.Run(q, ms, 5, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Selected) == 0 {
		t.Fatal("the plan selected no combination: the test lost its subject")
	}
	stripped := slices.Clone(tb.Selected)
	for i := range stripped {
		stripped[i].EdgeUB = nil
	}
	srcs := storeSources(t, cols, ms)
	_, err = Run(context.Background(), &ReduceRequest{
		Query: q, Srcs: srcs, Plan: topbuckets.Listed(stripped), K: 5,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "edge UBs") {
		t.Fatalf("Run over combinations without edge UBs returned %v, want an edge-UB error", err)
	}
}
