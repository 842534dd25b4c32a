package join

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/rtree"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// mapSource is a test-local Source over an explicit vertex-scoped
// bucket map, building private R-trees lazily. It is NOT safe for
// concurrent use: tests hand it to Run's one-reducer local pass only.
type mapSource struct {
	col     int
	data    map[stats.BucketKey][]interval.Interval
	buckets map[stats.BucketKey]*mapBucket
}

// mapBucket is mapSource's bucket handle.
type mapBucket struct {
	items []interval.Interval
	tree  *rtree.Tree
}

func newMapSource(col int, data map[stats.BucketKey][]interval.Interval) *mapSource {
	return &mapSource{col: col, data: data, buckets: make(map[stats.BucketKey]*mapBucket)}
}

func (ms *mapSource) Bucket(startG, endG int) Bucket {
	key := stats.BucketKey{Col: ms.col, StartG: startG, EndG: endG}
	b, ok := ms.buckets[key]
	if !ok {
		items := ms.data[key]
		if len(items) == 0 {
			return nil
		}
		b = &mapBucket{items: items}
		ms.buckets[key] = b
	}
	return b
}

func (b *mapBucket) Items() []interval.Interval { return b.items }

func (b *mapBucket) Search(box rtree.Rect, fn func(ref int32) bool) {
	if b.tree == nil {
		b.tree = store.TreeOf(b.items)
	}
	b.tree.Search(box, func(pt rtree.Point) bool { return fn(pt.Ref) })
}

// runJoin is Run's local pass over a fixed list with the request spelled
// out.
func runJoin(q *query.Query, srcs []Source, combos []topbuckets.Combo, k int, opts LocalOptions) (*Output, error) {
	return runPlanned(q, srcs, topbuckets.Listed(combos), k, opts)
}

// runPlanned is Run's local pass over a plan.
func runPlanned(q *query.Query, srcs []Source, p *topbuckets.Plan, k int, opts LocalOptions) (*Output, error) {
	return Run(context.Background(), &ReduceRequest{
		Query: q, Srcs: srcs, Plan: p, K: k, Opts: opts, Shared: NewSharedFloor(p.KthResLB),
	}, nil)
}

func TestTopKCollector(t *testing.T) {
	tk := NewTopK(3)
	if tk.Full() || tk.Threshold() != -1 {
		t.Fatal("empty collector should not be full and should admit anything")
	}
	for _, s := range []float64{0.5, 0.2, 0.9, 0.1, 0.7} {
		tk.Add(Result{Tuple: []interval.Interval{{ID: int64(s * 10)}}, Score: s})
	}
	if !tk.Full() || tk.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tk.Len())
	}
	rs := tk.Results()
	want := []float64{0.9, 0.7, 0.5}
	for i, r := range rs {
		if r.Score != want[i] {
			t.Fatalf("Results[%d].Score = %g, want %g", i, r.Score, want[i])
		}
	}
	if tk.Threshold() != 0.5 {
		t.Errorf("Threshold = %g, want 0.5", tk.Threshold())
	}
	// Equal-to-threshold results are not admitted (interchangeable ties).
	tk.Add(Result{Score: 0.5})
	if tk.Threshold() != 0.5 || tk.Len() != 3 {
		t.Error("tie admission changed the collector")
	}
}

func TestPlanChainCycleStar(t *testing.T) {
	env := query.Env{Params: scoring.P1}
	// Chain: order 0,1,2; one edge binds at each of levels 1,2.
	p := newPlan(query.Qbb(env))
	if len(p.order) != 3 || p.order[0] != 0 {
		t.Fatalf("chain order = %v", p.order)
	}
	if len(p.bindEdges[1]) != 1 || len(p.bindEdges[2]) != 1 {
		t.Fatalf("chain bindEdges = %v", p.bindEdges)
	}
	// Cycle Qs,f,m: binding the last vertex closes two edges.
	p = newPlan(query.Qsfm(env))
	total := len(p.bindEdges[1]) + len(p.bindEdges[2])
	if total != 3 {
		t.Fatalf("cycle binds %d edges, want 3", total)
	}
	if !p.avgAgg {
		t.Error("normalized-sum queries should enable threshold inversion")
	}
	// Star: every level binds one edge to vertex 0.
	p = newPlan(query.QbStar(env, 5))
	for pos := 1; pos < 5; pos++ {
		if len(p.bindEdges[pos]) != 1 || p.primary[pos] == -1 {
			t.Fatalf("star bindEdges[%d] = %v", pos, p.bindEdges[pos])
		}
	}
}

func synthCols(n, perCol int, seed int64) []*interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, n)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(2000)
			c.Add(interval.Interval{ID: int64(i*1000000 + j), Start: s, End: s + 1 + rng.Int63n(80)})
		}
		cols[i] = c
	}
	return cols
}

// collect builds one bucket matrix per collection under g granules —
// what the offline statistics job produces, without running it.
func collect(t *testing.T, cols []*interval.Collection, g int) []*stats.Matrix {
	t.Helper()
	ms := make([]*stats.Matrix, len(cols))
	for i, c := range cols {
		s := c.ComputeStats()
		gran, err := stats.NewGranulation(s.MinStart, s.MaxEnd, g)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = stats.NewMatrix(i, gran)
		for _, iv := range c.Items {
			ms[i].Add(iv)
		}
	}
	return ms
}

// storeSources builds the dataset-resident store and the per-vertex
// sources, vertex i reading collection i.
func storeSources(t *testing.T, cols []*interval.Collection, ms []*stats.Matrix) []Source {
	t.Helper()
	st, err := store.Build(cols, ms)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]Source, len(cols))
	for v := range cols {
		srcs[v] = st.Col(v)
	}
	return srcs
}

// pipeline runs the full TKIJ flow for tests: TopBuckets, then Run's
// local pass — over a lazy plan as the engine runs it for the loose
// strategy, over the selected list for the others.
func pipeline(t *testing.T, q *query.Query, cols []*interval.Collection, g, k int,
	strat topbuckets.Strategy, opts LocalOptions) *Output {
	t.Helper()
	ms := collect(t, cols, g)
	var p *topbuckets.Plan
	if strat == topbuckets.Loose {
		var err error
		if p, err = topbuckets.NewPlan(q, ms, k); err != nil {
			t.Fatal(err)
		}
	} else {
		tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		p = topbuckets.Listed(tb.Selected)
	}
	out, err := runPlanned(q, storeSources(t, cols, ms), p, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// All three TopBuckets strategies agree on the answer, and with the
// exhaustive one: the lazy plan of the loose strategy, and the
// two-phase and brute-force selections run as fixed lists.
func TestStrategiesAgree(t *testing.T) {
	cols := synthCols(3, 30, 10)
	q := query.Qss(query.Env{Params: scoring.P2, Avg: 45})
	const k = 8
	want, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []topbuckets.Strategy{topbuckets.Loose, topbuckets.TwoPhase, topbuckets.BruteForce} {
		if out := pipeline(t, q, cols, 4, k, strat, LocalOptions{}); !ScoreMultisetEqual(out.Results, want, 1e-9) {
			t.Fatalf("%s: %v, the exhaustive answer %v", strat, scoresOf(out.Results), scoresOf(want))
		}
	}
}

// The headline correctness claim: TKIJ returns the exact top-k. We
// check score-multiset equality against exhaustive enumeration across
// queries and strategies.
func TestEndToEndExactness(t *testing.T) {
	env := query.Env{Params: scoring.P1, Avg: 40}
	queries := []*query.Query{
		query.Qbb(env), query.Qoo(env), query.Qss(env), query.Qsm(env),
		query.Qsfm(env), query.Qom(env),
	}
	const k = 15
	for seed := int64(1); seed <= 3; seed++ {
		cols := synthCols(3, 30, seed)
		for _, q := range queries {
			exact, err := Exhaustive(q, cols, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []topbuckets.Strategy{topbuckets.Loose, topbuckets.TwoPhase} {
				out := pipeline(t, q, cols, 5, k, strat, LocalOptions{})
				if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
					t.Fatalf("seed %d %s/%s: TKIJ top-%d != exhaustive\n got %v\nwant %v",
						seed, q.Name, strat, k, scoresOf(out.Results), scoresOf(exact))
				}
			}
		}
	}
}

// Custom predicates (justBefore, shiftMeets) through the full pipeline.
func TestEndToEndCustomPredicates(t *testing.T) {
	cols := synthCols(3, 25, 9)
	avg := interval.AvgLength(cols...)
	env := query.Env{Params: scoring.P3, Avg: avg}
	const k = 10
	for _, q := range []*query.Query{query.QjBjB(env), query.QsMsM(env)} {
		exact, err := Exhaustive(q, cols, k)
		if err != nil {
			t.Fatal(err)
		}
		out := pipeline(t, q, cols, 6, k, topbuckets.Loose, LocalOptions{})
		if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
			t.Fatalf("%s: TKIJ != exhaustive\n got %v\nwant %v", q.Name, scoresOf(out.Results), scoresOf(exact))
		}
	}
}

// Boolean parameters (PB): TKIJ must still fill k results, padding with
// below-1.0 scores when fewer than k tuples satisfy the predicates.
func TestEndToEndBooleanParams(t *testing.T) {
	cols := synthCols(3, 25, 4)
	env := query.Env{Params: scoring.PB}
	q := query.Qbb(env)
	const k = 12
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	out := pipeline(t, q, cols, 5, k, topbuckets.Loose, LocalOptions{})
	if len(out.Results) != k {
		t.Fatalf("returned %d results, want %d", len(out.Results), k)
	}
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatalf("Boolean TKIJ != exhaustive\n got %v\nwant %v", scoresOf(out.Results), scoresOf(exact))
	}
}

// The ablations must not change the answer, only the work done.
func TestAblationsPreserveExactness(t *testing.T) {
	cols := synthCols(3, 25, 11)
	env := query.Env{Params: scoring.P2, Avg: 40}
	q := query.Qom(env)
	const k = 10
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []LocalOptions{
		{},
		{DisableIndex: true},
		{DisablePruning: true},
		{DisableIndex: true, DisablePruning: true},
	} {
		out := pipeline(t, q, cols, 5, k, topbuckets.Loose, opts)
		if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
			t.Fatalf("opts %+v: TKIJ != exhaustive", opts)
		}
	}
}

// Pruning must reduce (or at least not increase) the tuples examined.
func TestPruningReducesWork(t *testing.T) {
	cols := synthCols(2, 150, 13)
	pp := scoring.P1
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Before(pp)}}, scoring.Avg{})
	const k = 5
	withP := pipeline(t, q, cols, 6, k, topbuckets.Loose, LocalOptions{})
	withoutP := pipeline(t, q, cols, 6, k, topbuckets.Loose, LocalOptions{DisablePruning: true})
	var examinedP, examinedNoP int64
	for _, l := range withP.Locals {
		examinedP += l.TuplesExamined
	}
	for _, l := range withoutP.Locals {
		examinedNoP += l.TuplesExamined
	}
	// A probe-ladder rung that neither fills its top-k nor sees the
	// shared floor reach its value is dropped, and its tuples still count
	// in TuplesExamined, so allow a modest margin; a pruning regression
	// would blow past it by orders of magnitude.
	if examinedP > examinedNoP+examinedNoP/5+200 {
		t.Errorf("pruning examined %d tuples, without pruning %d", examinedP, examinedNoP)
	}
}

// On a workload where high scores are rare (equality-based predicates),
// the probe ladder + floor must cut the examined tuples drastically
// compared to the unpruned run.
func TestProbeLadderCutsWork(t *testing.T) {
	cols := synthCols(3, 120, 21)
	env := query.Env{Params: scoring.P1}
	q := query.Qss(env) // starts twice: equality on start points, sparse highs
	const k = 5
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	withP := pipeline(t, q, cols, 6, k, topbuckets.Loose, LocalOptions{})
	withoutP := pipeline(t, q, cols, 6, k, topbuckets.Loose, LocalOptions{DisablePruning: true})
	if !ScoreMultisetEqual(withP.Results, exact, 1e-9) {
		t.Fatal("pruned run inexact")
	}
	if !ScoreMultisetEqual(withoutP.Results, exact, 1e-9) {
		t.Fatal("unpruned run inexact")
	}
	var examinedP, examinedNoP int64
	probes := 0
	for _, l := range withP.Locals {
		examinedP += l.TuplesExamined
		probes += l.ProbeRounds
	}
	for _, l := range withoutP.Locals {
		examinedNoP += l.TuplesExamined
	}
	if probes == 0 {
		t.Error("probe ladder never ran")
	}
	if examinedP*2 > examinedNoP {
		t.Errorf("probe ladder saved too little: %d examined vs %d unpruned", examinedP, examinedNoP)
	}
}

// One reducer handed all data (through a plain bucket map rather than
// the store) and all combinations computes the exact answer.
func TestSingleReducerOverBucketMap(t *testing.T) {
	cols := synthCols(2, 40, 2)
	ms := collect(t, cols, 4)
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)}}, scoring.Avg{})
	const k = 8
	tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand all data and all combos to one local joiner.
	data := make(map[stats.BucketKey][]interval.Interval)
	for col, c := range cols {
		for _, iv := range c.Items {
			l, lp := ms[col].Gran.BucketOf(iv)
			key := stats.BucketKey{Col: col, StartG: l, EndG: lp}
			data[key] = append(data[key], iv)
		}
	}
	srcs := []Source{newMapSource(0, data), newMapSource(1, data)}
	out, err := runJoin(q, srcs, tb.Selected, k, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatalf("single reducer != exhaustive: %v vs %v", scoresOf(out.Results), scoresOf(exact))
	}
	st := out.Locals[0]
	// The pass reads the list until a UB cannot beat its k-th result.
	if st.CombosAssigned > len(tb.Selected) || st.CombosAssigned < st.CombosProcessed+st.CombosSkipped || st.CombosProcessed == 0 {
		t.Errorf("read %d of %d combinations, processed %d and skipped %d",
			st.CombosAssigned, len(tb.Selected), st.CombosProcessed, st.CombosSkipped)
	}
	if math.IsNaN(st.MinScore) {
		t.Error("MinScore not recorded")
	}
}

func TestRunArgErrors(t *testing.T) {
	cols := synthCols(2, 10, 1)
	ms := collect(t, cols, 3)
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Before(scoring.P1)}}, scoring.Avg{})
	tb, err := topbuckets.Run(q, ms, 5, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srcs := storeSources(t, cols, ms)
	if _, err := runJoin(q, srcs[:1], tb.Selected, 5, LocalOptions{}); err == nil {
		t.Error("source count mismatch accepted")
	}
	if _, err := runJoin(q, srcs, tb.Selected, 0, LocalOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestScoreMultisetEqual(t *testing.T) {
	a := []Result{{Score: 1}, {Score: 0.5}}
	b := []Result{{Score: 0.5}, {Score: 1}}
	if !ScoreMultisetEqual(a, b, 0) {
		t.Error("permuted multisets should be equal")
	}
	c := []Result{{Score: 1}, {Score: 0.4}}
	if ScoreMultisetEqual(a, c, 1e-3) {
		t.Error("different multisets reported equal")
	}
	if ScoreMultisetEqual(a, a[:1], 0) {
		t.Error("different lengths reported equal")
	}
}

func scoresOf(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	return out
}
