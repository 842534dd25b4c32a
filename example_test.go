package tkij_test

import (
	"context"
	"fmt"

	"tkij"
)

// ExampleNewEngine builds an engine over two tiny collections. The
// offline phase (statistics + bucket store) runs lazily on first use;
// PrepareStats forces it eagerly so serving latency excludes it.
func ExampleNewEngine() {
	shifts := tkij.NewCollection("shifts", []tkij.Interval{
		{ID: 1, Start: 0, End: 10}, {ID: 2, Start: 20, End: 30},
	})
	alerts := tkij.NewCollection("alerts", []tkij.Interval{
		{ID: 3, Start: 10, End: 18}, {ID: 4, Start: 40, End: 50},
	})
	engine, err := tkij.NewEngine([]*tkij.Collection{shifts, alerts}, tkij.Options{
		Granules: 4, K: 1, Reducers: 2,
	})
	if err != nil {
		panic(err)
	}
	if err := engine.PrepareStats(); err != nil {
		panic(err)
	}
	fmt.Printf("engine over %d collections, k=%d, g=%d\n",
		len(engine.Collections()), engine.Options().K, engine.Options().Granules)
	// Output:
	// engine over 2 collections, k=1, g=4
}

// ExampleEngine_Execute runs a 2-way meets query: which alert starts
// exactly when a shift ends? PB makes the predicate Boolean (score 1
// on an exact Allen meets, 0 otherwise), so the top result is crisp.
func ExampleEngine_Execute() {
	shifts := tkij.NewCollection("shifts", []tkij.Interval{
		{ID: 1, Start: 0, End: 10}, {ID: 2, Start: 20, End: 30},
	})
	alerts := tkij.NewCollection("alerts", []tkij.Interval{
		{ID: 3, Start: 10, End: 18}, {ID: 4, Start: 40, End: 50},
	})
	engine, err := tkij.NewEngine([]*tkij.Collection{shifts, alerts}, tkij.Options{
		Granules: 4, K: 1, Reducers: 2,
	})
	if err != nil {
		panic(err)
	}
	q, err := tkij.NewQuery("shift-meets-alert", 2,
		[]tkij.Edge{{From: 0, To: 1, Pred: tkij.Meets(tkij.PB)}}, tkij.Avg{})
	if err != nil {
		panic(err)
	}
	report, err := engine.Execute(context.Background(), q)
	if err != nil {
		panic(err)
	}
	best := report.Results[0]
	fmt.Printf("best score %.2f: shift %d meets alert %d\n",
		best.Score, best.Tuple[0].ID, best.Tuple[1].ID)
	// Output:
	// best score 1.00: shift 1 meets alert 3
}

// ExampleEngine_Append streams new intervals into a serving engine: the
// bucket matrix is maintained incrementally and the store publishes a
// new epoch — no statistics job, no rebuild, and in-flight queries are
// never stalled. The repeated query shape reuses the cached plan,
// promoted across the epoch bump.
func ExampleEngine_Append() {
	shifts := tkij.NewCollection("shifts", []tkij.Interval{
		{ID: 1, Start: 0, End: 10}, {ID: 2, Start: 20, End: 30},
	})
	alerts := tkij.NewCollection("alerts", []tkij.Interval{
		{ID: 3, Start: 12, End: 18},
	})
	engine, err := tkij.NewEngine([]*tkij.Collection{shifts, alerts}, tkij.Options{
		Granules: 4, K: 1, Reducers: 2,
	})
	if err != nil {
		panic(err)
	}
	q, err := tkij.NewQuery("shift-meets-alert", 2,
		[]tkij.Edge{{From: 0, To: 1, Pred: tkij.Meets(tkij.PB)}}, tkij.Avg{})
	if err != nil {
		panic(err)
	}
	before, err := engine.Execute(context.Background(), q)
	if err != nil {
		panic(err)
	}
	// A new alert arrives that starts exactly when shift 2 ends.
	epoch, err := engine.Append(1, []tkij.Interval{{ID: 9, Start: 30, End: 35}})
	if err != nil {
		panic(err)
	}
	after, err := engine.Execute(context.Background(), q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("before: best %.2f\n", before.Results[0].Score)
	fmt.Printf("epoch %d: best %.2f (alert %d)\n",
		epoch, after.Results[0].Score, after.Results[0].Tuple[1].ID)
	// Output:
	// before: best 0.00
	// epoch 1: best 1.00 (alert 9)
}
