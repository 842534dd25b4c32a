package join

import (
	"context"
	"testing"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// Regression: an assignment routing nothing gives the merge zero
// inputs; Run must still return a non-nil (empty) result slice — not a
// nil slice that breaks callers ranging or JSON-encoding the output —
// and one index-carrying Locals entry per reducer.
func TestRunEmptyAssignment(t *testing.T) {
	q := query.MustNew("empty", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	srcs := []Source{
		newMapSource(0, map[stats.BucketKey][]interval.Interval{}),
		newMapSource(1, map[stats.BucketKey][]interval.Interval{}),
	}
	grans := make([]stats.Grid, 2)
	assign := &distribute.Assignment{
		Algorithm:      "DTB",
		Reducers:       3,
		ReducerCombos:  make([][]int, 3),
		BucketReducers: map[stats.BucketKey][]int{},
		ReducerResults: make([]float64, 3),
	}
	out, err := runJoin(q, srcs, grans, nil, assign, 5, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results == nil {
		t.Fatal("Results is nil; want an empty non-nil slice")
	}
	if len(out.Results) != 0 {
		t.Fatalf("got %d results from an empty assignment", len(out.Results))
	}
	for rj, l := range out.Locals {
		if l != (LocalStats{Reducer: rj}) {
			t.Fatalf("Locals[%d] = %+v for a reducer that never ran, want only its index", rj, l)
		}
	}
	if len(out.Locals) != 3 || out.JoinMetrics.MaxReduceDuration() != 0 || out.JoinMetrics.Imbalance() != 0 {
		t.Fatalf("empty run reports %d reducers, max %v, imbalance %g",
			len(out.Locals), out.JoinMetrics.MaxReduceDuration(), out.JoinMetrics.Imbalance())
	}
	if out.JoinDuration < 0 || out.MergeDuration < 0 {
		t.Fatalf("negative phase durations: join %v, merge %v", out.JoinDuration, out.MergeDuration)
	}
}

// A reducer stops at the first combination its threshold dominates, so
// a task listing combinations out of descending-UB order could skip live
// ones: RunTasks refuses it instead of re-sorting or running it.
func TestRunTasksRejectsUnsortedTask(t *testing.T) {
	q := query.MustNew("unsorted", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	bucket := func(col int) stats.Bucket { return stats.Bucket{Col: col, Count: 1} }
	combos := []topbuckets.Combo{
		{Buckets: []stats.Bucket{bucket(0), bucket(1)}, UB: 0.2, NbRes: 1},
		{Buckets: []stats.Bucket{bucket(0), bucket(1)}, UB: 0.9, NbRes: 1},
	}
	req := &ReduceRequest{
		Query: q,
		Srcs: []Source{
			newMapSource(0, map[stats.BucketKey][]interval.Interval{}),
			newMapSource(1, map[stats.BucketKey][]interval.Interval{}),
		},
		Combos: combos,
		K:      1,
	}
	if _, err := RunTasks(context.Background(), req, []ReducerTask{{Reducer: 0, Combos: []int{0, 1}}}); err == nil {
		t.Fatal("RunTasks ran a task whose combinations are in ascending-UB order")
	}
	if _, err := RunTasks(context.Background(), req, []ReducerTask{{Reducer: 0, Combos: []int{1, 0}}}); err != nil {
		t.Fatalf("RunTasks refused a descending-UB task: %v", err)
	}
}
