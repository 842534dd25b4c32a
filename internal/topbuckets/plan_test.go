package topbuckets

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// boundedOmega is Ω enumerated in full and bounded by LooseBounds: the
// list a plan's selection must equal.
func boundedOmega(t testing.TB, q *query.Query, ms []*stats.Matrix) []Combo {
	t.Helper()
	lists, err := validateInputs(q, ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	var all []Combo
	enumerate(lists, func(bs []stats.Bucket) {
		all = append(all, Combo{Buckets: append([]stats.Bucket(nil), bs...), NbRes: nbRes(bs)})
	})
	LooseBounds(q, ms, all)
	return all
}

// checkPlanEquivalence asserts that the loose run's Ω_k,S is
// SelectWithThreshold over the bounded Ω bit for bit, and that a fresh
// plan read through At one combination at a time builds exactly what is
// read, returns the drain's combinations in order, and bounds every
// combination not yet read (with -Inf once it has found its end).
func checkPlanEquivalence(t testing.TB, what string, q *query.Query, ms []*stats.Matrix, k int, all []Combo) {
	t.Helper()
	want, wantT := SelectWithThreshold(k, all)
	res, err := Run(q, ms, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, what, res.Selected, want)
	if math.Float64bits(res.KthResLB) != math.Float64bits(wantT) {
		t.Fatalf("%s: kthResLB %v, the list selection's %v", what, res.KthResLB, wantT)
	}

	p, err := NewPlan(q, ms, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		b := p.Bound(i)
		c, ok := p.At(i)
		if !ok {
			if b := p.Bound(i); i != len(want) || !math.IsInf(b, -1) {
				t.Fatalf("%s: the plan ends after %d combinations with bound %v, the list selects %d", what, i, b, len(want))
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("%s: the plan reads a combination %d past the list's %d", what, i, len(want))
		}
		sameSelection(t, fmt.Sprintf("%s, prefix %d", what, i), []Combo{c}, want[i:i+1])
		if !(b >= c.UB) || p.Bound(i) != c.UB {
			t.Fatalf("%s: combination %d has UB %v, bounded by %v before it was built and %v after", what, i, c.UB, b, p.Bound(i))
		}
		if p.Len() != i+1 {
			t.Fatalf("%s: reading %d combinations built %d", what, i+1, p.Len())
		}
	}
	sameSelection(t, what+", drain", p.Drain(), want)
}

// The plan walk equals the list selection: over the ten Table-1 shapes
// under P1 and P2, at g = 4, 8 and 20, for k = 1, 50, 2,000 and one more
// than the total result count (where H is all of Ω), Run(Loose) is
// SelectWithThreshold over the fully enumerated Ω bounded by
// LooseBounds, bit for bit and in order, and every prefix read through
// At is the drain's.
func TestPlanEqualsListSelection(t *testing.T) {
	cols := make([]*interval.Collection, 3)
	for i := range cols {
		cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), 400, int64(101+i))
	}
	env := func(pp scoring.PairParams) query.Env {
		return query.Env{Params: pp, Avg: interval.AvgLength(cols...)}
	}
	shapes := []string{"Qb,b", "Qf,f", "Qo,o", "Qs,s", "Qs,f,m", "Qf,b", "Qo,m", "Qs,m", "QjB,jB", "QsM,sM"}
	for _, g := range []int{4, 8, 20} {
		ms := matricesFor(t, cols, g)
		total := 1
		for _, m := range ms {
			total *= m.Total()
		}
		for pi, pp := range []scoring.PairParams{scoring.P1, scoring.P2} {
			for _, shape := range shapes {
				q, err := query.ByName(shape, env(pp))
				if err != nil {
					t.Fatal(err)
				}
				all := boundedOmega(t, q, ms)
				for _, k := range []int{1, 50, 2000, total + 1} {
					checkPlanEquivalence(t, fmt.Sprintf("g=%d P%d %s k=%d", g, pi+1, shape, k), q, ms, k, all)
				}
			}
		}
	}
}

// A plan read in another labeling is the plan's combinations with their
// tuples permuted by the vertex permutation and their edge UBs by the
// edge permutation, in the same order.
func TestPlanRelabel(t *testing.T) {
	cols := synthCollections(2, 60, 5)
	ms := matricesFor(t, cols, 5)
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Overlaps(scoring.P1)}}, scoring.Avg{})
	p, err := NewPlan(q, ms, 30)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Relabel([]int{1, 0}, nil)
	if p.Relabel(nil, nil) != p {
		t.Fatal("the identity relabeling is not the plan itself")
	}
	for i := 0; ; i++ {
		c, ok := r.At(i)
		w, wok := p.At(i)
		if ok != wok {
			t.Fatalf("combination %d: relabeled ok=%v, plan ok=%v", i, ok, wok)
		}
		if !ok {
			break
		}
		if c.LB != w.LB || c.UB != w.UB || c.NbRes != w.NbRes || c.EdgeUB[0] != w.EdgeUB[0] ||
			c.Buckets[0].StartG != w.Buckets[1].StartG || c.Buckets[0].EndG != w.Buckets[1].EndG ||
			c.Buckets[1].StartG != w.Buckets[0].StartG || c.Buckets[0].Col != 0 || c.Buckets[1].Col != 1 {
			t.Fatalf("combination %d: relabeled %+v of %+v", i, c, w)
		}
	}
	if r.KthResLB != p.KthResLB {
		t.Fatalf("relabeled kthResLB %v, plan %v", r.KthResLB, p.KthResLB)
	}

	// The same edges listed the other way round: the vertices keep their
	// labels and only the edge UBs swap.
	cols = synthCollections(3, 60, 6)
	ms = matricesFor(t, cols, 5)
	q = query.Qom(query.Env{Params: scoring.P1})
	if p, err = NewPlan(q, ms, 30); err != nil {
		t.Fatal(err)
	}
	r = p.Relabel(nil, []int{1, 0})
	for i := 0; i < 20; i++ {
		c, ok := r.At(i)
		w, _ := p.At(i)
		if !ok {
			break
		}
		if c.UB != w.UB || c.EdgeUB[0] != w.EdgeUB[1] || c.EdgeUB[1] != w.EdgeUB[0] || tupleKey(c) != tupleKey(w) {
			t.Fatalf("combination %d: edge-relabeled %+v of %+v", i, c, w)
		}
	}
}

// Reading a built combination takes no allocation.
func TestPlanReadAllocFree(t *testing.T) {
	cols := synthCollections(3, 200, 9)
	ms := matricesFor(t, cols, 5)
	q := query.Qom(query.Env{Params: scoring.P1})
	p, err := NewPlan(q, ms, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.At(3); !ok {
		t.Fatal("fewer than four combinations")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			p.At(i)
			p.Bound(i)
		}
	})
	if allocs != 0 {
		t.Fatalf("reading built combinations allocates %v times", allocs)
	}
}

// FuzzTopBuckets holds the plan to the list selection over fuzzed data,
// shapes, parameters, granularities and k.
func FuzzTopBuckets(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(0), uint8(0), uint16(10))
	f.Add(int64(7), uint8(12), uint8(6), uint8(4), uint8(1), uint16(1))
	f.Add(int64(3), uint8(30), uint8(3), uint8(8), uint8(0), uint16(5000))
	shapes := []string{"Qb,b", "Qf,f", "Qo,o", "Qs,s", "Qs,f,m", "Qf,b", "Qo,m", "Qs,m", "QjB,jB", "QsM,sM"}
	f.Fuzz(func(t *testing.T, seed int64, n, g, shape, params uint8, k uint16) {
		if n == 0 || n > 60 || g < 1 || g > 8 || k == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		cols := make([]*interval.Collection, 3)
		for i := range cols {
			c := &interval.Collection{Name: fmt.Sprintf("C%d", i)}
			for j := 0; j < int(n); j++ {
				s := rng.Int63n(1000)
				c.Add(interval.Interval{ID: int64(j), Start: s, End: s + rng.Int63n(120)})
			}
			cols[i] = c
		}
		ms := matricesFor(t, cols, int(g))
		pp := []scoring.PairParams{scoring.P1, scoring.P2}[int(params)%2]
		q, err := query.ByName(shapes[int(shape)%len(shapes)], query.Env{Params: pp, Avg: interval.AvgLength(cols...)})
		if err != nil {
			t.Fatal(err)
		}
		checkPlanEquivalence(t, "fuzz", q, ms, int(k), boundedOmega(t, q, ms))
	})
}
