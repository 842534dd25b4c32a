package join

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/topbuckets"
)

// TopK must agree with sort-descending-take-k on any stream.
func TestTopKMatchesSortProperty(t *testing.T) {
	f := func(raw []uint16, kRaw uint8) bool {
		k := int(kRaw)%20 + 1
		tk := NewTopK(k)
		var all []float64
		for i, r := range raw {
			s := float64(r) / 65535
			all = append(all, s)
			tk.Add(Result{Tuple: []interval.Interval{{ID: int64(i)}}, Score: s})
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		if len(all) > k {
			all = all[:k]
		}
		got := tk.Results()
		if len(got) != len(all) {
			return false
		}
		for i := range got {
			if got[i].Score != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Queries whose edges point *into* vertex 0 must plan and execute
// correctly (the candidate-box derivation swaps the fixed/free sides).
func TestReversedEdgeDirections(t *testing.T) {
	pp := scoring.P1
	// before(x2, x1), meets(x3, x2): still weakly connected, vertex 0 is
	// only ever the To side.
	q := query.MustNew("reversed", 3, []query.Edge{
		{From: 1, To: 0, Pred: scoring.Before(pp)},
		{From: 2, To: 1, Pred: scoring.Meets(pp)},
	}, scoring.Avg{})
	cols := synthCols(3, 30, 17)
	const k = 10
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	out := pipeline(t, q, cols, 5, k, topbuckets.Loose, LocalOptions{})
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatalf("reversed-edge query inexact: %v vs %v", scoresOf(out.Results), scoresOf(exact))
	}
}

// A 4-way chain exercises deeper recursion than the paper's 3-way
// queries.
func TestFourWayChain(t *testing.T) {
	pp := scoring.P1
	q := query.MustNew("chain4", 4, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Before(pp)},
		{From: 1, To: 2, Pred: scoring.Overlaps(pp)},
		{From: 2, To: 3, Pred: scoring.Meets(pp)},
	}, scoring.Avg{})
	cols := synthCols(4, 18, 23)
	const k = 8
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	out := pipeline(t, q, cols, 4, k, topbuckets.Loose, LocalOptions{})
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatal("4-way chain inexact")
	}
}

// A caller-seeded shared floor must never change the answer when it is
// a valid lower bound on the k-th score, and reducers must report it.
func TestFloorPropagation(t *testing.T) {
	cols := synthCols(2, 80, 29)
	pp := scoring.P1
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Before(pp)}}, scoring.Avg{})
	const k = 10
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	kth := exact[len(exact)-1].Score
	ms := collect(t, cols, 5)
	tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{Strategy: topbuckets.Loose})
	if err != nil {
		t.Fatal(err)
	}
	srcs := storeSources(t, cols, ms)
	out, err := Run(context.Background(), &ReduceRequest{
		Query: q, Srcs: srcs, Plan: topbuckets.Listed(tb.Selected), K: k,
		Shared: NewSharedFloor(kth),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatalf("valid floor %g changed the answer", kth)
	}
	sawFloor := false
	for _, l := range out.Locals {
		if l.FloorUsed >= kth {
			sawFloor = true
		}
	}
	if !sawFloor {
		t.Error("floor not propagated to reducers")
	}
}

// Weighted-sum aggregation (non-Avg) disables threshold inversion but
// must stay exact.
func TestWeightedSumAggregatorExact(t *testing.T) {
	ws, err := scoring.NewWeightedSum([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	pp := scoring.P2
	q := query.MustNew("weighted", 3, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Overlaps(pp)},
		{From: 1, To: 2, Pred: scoring.Before(pp)},
	}, ws)
	cols := synthCols(3, 25, 31)
	const k = 10
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	out := pipeline(t, q, cols, 5, k, topbuckets.Loose, LocalOptions{})
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatal("weighted-sum query inexact")
	}
}

// Randomized end-to-end fuzz across seeds, sizes, granule counts and k.
func TestEndToEndFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	env := query.Env{Params: scoring.P1, Avg: 40}
	catalog := []*query.Query{
		query.Qbb(env), query.Qoo(env), query.Qfb(env), query.Qsm(env),
	}
	for trial := 0; trial < 12; trial++ {
		size := 15 + rng.Intn(30)
		g := 3 + rng.Intn(6)
		k := 1 + rng.Intn(20)
		q := catalog[rng.Intn(len(catalog))]
		cols := synthCols(3, size, rng.Int63())
		exact, err := Exhaustive(q, cols, k)
		if err != nil {
			t.Fatal(err)
		}
		out := pipeline(t, q, cols, g, k, topbuckets.Loose, LocalOptions{})
		if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
			t.Fatalf("fuzz trial %d (%s, size %d, g %d, k %d) inexact", trial, q.Name, size, g, k)
		}
	}
}
