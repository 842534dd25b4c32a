package distribute

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// joinFixture is a query's inputs up to the join: n collections, their
// store sources, and the selected combinations.
type joinFixture struct {
	q      *query.Query
	cols   []*interval.Collection
	srcs   []join.Source
	combos []topbuckets.Combo
	k      int
}

func newJoinFixture(t *testing.T, q *query.Query, perCol, g, k int, seed int64) *joinFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &joinFixture{q: q, k: k}
	ms := make([]*stats.Matrix, q.NumVertices)
	for i := 0; i < q.NumVertices; i++ {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(2000)
			c.Add(interval.Interval{ID: int64(i*1000000 + j), Start: s, End: s + 1 + rng.Int63n(80)})
		}
		cs := c.ComputeStats()
		gran, err := stats.NewGranulation(cs.MinStart, cs.MaxEnd, g)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = stats.NewMatrix(i, gran)
		for _, iv := range c.Items {
			ms[i].Add(iv)
		}
		f.cols = append(f.cols, c)
	}
	tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(f.cols, ms)
	if err != nil {
		t.Fatal(err)
	}
	for v := range f.cols {
		f.srcs = append(f.srcs, st.Col(v))
	}
	f.combos = tb.Selected
	return f
}

func (f *joinFixture) run(t *testing.T, a *Assignment) *join.Output {
	t.Helper()
	out, err := join.Run(context.Background(), &join.ReduceRequest{
		Query: f.q, Srcs: f.srcs, Plan: topbuckets.Listed(f.combos), K: f.k,
	}, a)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The routed-reference accounting must agree with the assignment: one
// reference per (bucket, reducer) pair, weighted to DTB's replication
// metric, and split per reducer consistently.
func TestRoutedReferenceAccounting(t *testing.T) {
	f := newJoinFixture(t, query.Qom(query.Env{Params: scoring.P1}), 60, 5, 10, 41)
	assign, err := DTB(f.combos, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := f.run(t, assign)
	perReducer := 0
	for _, l := range out.Locals {
		perReducer += l.BucketRefsRouted
	}
	if out.RoutedBucketEntries != perReducer {
		t.Fatalf("RoutedBucketEntries %d != Σ Locals.BucketRefsRouted %d", out.RoutedBucketEntries, perReducer)
	}
	wantEntries := 0
	for _, rs := range assign.BucketReducers {
		wantEntries += len(rs)
	}
	if out.RoutedBucketEntries != wantEntries {
		t.Fatalf("RoutedBucketEntries = %d, want %d (Σ|reducers(b)|)", out.RoutedBucketEntries, wantEntries)
	}
	// DTB's replication metric is preserved under the reference shuffle.
	if math.Abs(out.RoutedIntervalRecords-assign.ReplicatedRecords) > 1e-9 {
		t.Fatalf("RoutedIntervalRecords = %g, assignment ReplicatedRecords = %g",
			out.RoutedIntervalRecords, assign.ReplicatedRecords)
	}
}

// Every algorithm's reducers, run side by side against one floor, return
// the exact top-k; with more reducers than combinations each idle
// reducer still has its Locals entry, carrying only its index.
func TestGatherEveryReducer(t *testing.T) {
	f := newJoinFixture(t, query.Qoo(query.Env{Params: scoring.P1}), 40, 4, 8, 7)
	exact, err := join.Exhaustive(f.q, f.cols, f.k)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgDTB, AlgLPT, AlgRoundRobin} {
		for _, r := range []int{1, 3, len(f.combos) + 5} {
			assign, err := Assign(alg, f.combos, r)
			if err != nil {
				t.Fatal(err)
			}
			out := f.run(t, assign)
			if !join.ScoreMultisetEqual(out.Results, exact, 1e-9) {
				t.Fatalf("%s over %d reducers: top-%d != exhaustive", alg, r, f.k)
			}
			if len(out.Locals) != r {
				t.Fatalf("%s over %d reducers: %d Locals entries", alg, r, len(out.Locals))
			}
			idle := 0
			for rj, l := range out.Locals {
				if len(assign.ReducerCombos[rj]) == 0 {
					idle++
					if l != (join.LocalStats{Reducer: rj}) {
						t.Fatalf("%s: idle reducer %d reports %+v, want only its index", alg, rj, l)
					}
				} else if l.CombosAssigned != len(assign.ReducerCombos[rj]) {
					t.Fatalf("%s: reducer %d ran %d of its %d combinations", alg, rj, l.CombosAssigned, len(assign.ReducerCombos[rj]))
				}
			}
			if r > len(f.combos) && idle < r-len(f.combos) {
				t.Fatalf("%s over %d reducers: %d idle for %d combinations", alg, r, idle, len(f.combos))
			}
		}
	}
}
