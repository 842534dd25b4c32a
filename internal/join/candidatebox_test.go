package join

import (
	"math"
	"math/rand"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/rtree"
	"tkij/internal/scoring"
)

// referenceCandidateBox is the probe-box derivation as it stood before
// it was compiled per plan position (plan.boxes): it walks the
// predicate's terms per probe, builds a Rect per constraining term and
// clips with Rect.Intersect. It is kept verbatim as the oracle the
// compiled derivation must match bit for bit.
func referenceCandidateBox(pred *scoring.Predicate, freeIsY bool, fixed interval.Interval, vmin float64) rtree.Rect {
	box := rtree.Everything()
	if vmin <= 0 {
		return box
	}
	for _, t := range pred.Terms {
		dLo, dHi, ok := referenceRequiredDiffRange(t, vmin)
		if !ok {
			// vmin unreachable for this term: empty box.
			return rtree.Rect{MinX: 1, MaxX: 0}
		}
		var cs, ce float64 // coefficients of the free start/end endpoints
		var rest float64
		if freeIsY {
			cs, ce = t.Diff.Coef[scoring.YStart], t.Diff.Coef[scoring.YEnd]
			rest = t.Diff.Coef[scoring.XStart]*float64(fixed.Start) + t.Diff.Coef[scoring.XEnd]*float64(fixed.End) + t.Diff.Const
		} else {
			cs, ce = t.Diff.Coef[scoring.XStart], t.Diff.Coef[scoring.XEnd]
			rest = t.Diff.Coef[scoring.YStart]*float64(fixed.Start) + t.Diff.Coef[scoring.YEnd]*float64(fixed.End) + t.Diff.Const
		}
		switch {
		case cs != 0 && ce == 0:
			lo, hi := solveLinear(cs, rest, dLo, dHi)
			box = box.Intersect(rtree.Rect{MinX: lo, MaxX: hi, MinY: math.Inf(-1), MaxY: math.Inf(1)})
		case ce != 0 && cs == 0:
			lo, hi := solveLinear(ce, rest, dLo, dHi)
			box = box.Intersect(rtree.Rect{MinX: math.Inf(-1), MaxX: math.Inf(1), MinY: lo, MaxY: hi})
		}
		// Terms involving both or neither free endpoint: no narrowing.
	}
	return box
}

func referenceRequiredDiffRange(t scoring.Term, vmin float64) (dLo, dHi float64, ok bool) {
	switch t.Kind {
	case scoring.CompEquals:
		m := t.P.Lambda
		if t.P.Rho > 0 {
			m = t.P.Lambda + t.P.Rho*(1-vmin)
		}
		return -m, m, true
	case scoring.CompGreater:
		lo := t.P.Lambda
		if t.P.Rho > 0 {
			lo = t.P.Lambda + t.P.Rho*vmin
		}
		return lo, math.Inf(1), true
	}
	return 0, 0, false
}

// boxCatalog is every predicate of scoring's catalog under pp, plus three
// shapes the catalog does not hold: a term of unknown kind (⇒ empty box),
// a negative, non-unit free coefficient (swapped ranges in solveLinear),
// and two terms bounding one axis from the same side, which at a fixed
// endpoint of 0 under Boolean parameters meet as -0 and +0 — where
// math.Max and a plain comparison disagree.
func boxCatalog(pp scoring.PairParams, avg float64) []*scoring.Predicate {
	var preds []*scoring.Predicate
	for _, name := range []string{"before", "equals", "meets", "overlaps", "contains", "starts",
		"finishedBy", "justBefore", "shiftMeets", "sparks"} {
		p, ok := scoring.ByName(name, pp, avg)
		if !ok {
			panic("scoring catalog lost " + name)
		}
		preds = append(preds, p)
	}
	unknown := scoring.Meets(pp)
	unknown.Terms = append(unknown.Terms, scoring.NewTerm(scoring.CompKind(99), scoring.Length(true), scoring.Length(false), pp.Greater))
	scaled := scoring.VarPlus(scoring.YEnd, 3)
	scaled.Coef[scoring.YEnd] = -2.5
	skew := &scoring.Predicate{Name: "s-skew", Terms: []scoring.Term{
		scoring.NewTerm(scoring.CompEquals, scaled, scoring.Var(scoring.XStart), pp.Equals),
		scoring.NewTerm(scoring.CompGreater, scoring.Var(scoring.XEnd), scoring.Var(scoring.YEnd), pp.Greater),
	}}
	zeros := &scoring.Predicate{Name: "s-zeros", Terms: []scoring.Term{
		scoring.NewTerm(scoring.CompEquals, scoring.Var(scoring.XStart), scoring.Var(scoring.YStart), pp.Equals),
		scoring.NewTerm(scoring.CompGreater, scoring.Var(scoring.YStart), scoring.Var(scoring.XStart), pp.Greater),
	}}
	return append(preds, unknown, skew, zeros)
}

// compiledCandidateBox runs the join's own derivation for a single-edge
// query whose vertex 0 is bound to fixed and whose vertex 1 is free — on
// the edge's to side when freeIsY, its from side otherwise.
func compiledCandidateBox(pred *scoring.Predicate, freeIsY bool, fixed interval.Interval, vmin float64) rtree.Rect {
	edge := query.Edge{From: 1, To: 0, Pred: pred}
	if freeIsY {
		edge = query.Edge{From: 0, To: 1, Pred: pred}
	}
	// Not query.New: validation would reject the unknown-kind predicate
	// this test deliberately builds.
	q := &query.Query{Name: "box", NumVertices: 2, Edges: []query.Edge{edge}, Agg: scoring.Avg{}}
	lj := &localJoiner{plan: newPlan(q), tuple: make([]interval.Interval, 2)}
	lj.tuple[0] = fixed
	return lj.candidateBox(1, vmin)
}

func sameBoxBits(a, b rtree.Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// The compiled probe-box derivation must reproduce the per-probe one bit
// for bit (±Inf and signed zeros included): the box decides which
// candidates a reducer visits, so any drift would change LocalStats and
// could change which of several tied results is kept.
func TestCandidateBoxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vmins := []float64{1, 0.95, 0.75, 0.5, 0.25, 1e-9, math.SmallestNonzeroFloat64, 0, -0.5, 1.5}
	checked := 0
	for _, pp := range []scoring.PairParams{scoring.P1, scoring.P2, scoring.P3, scoring.PB} {
		for _, pred := range boxCatalog(pp, 37.5) {
			for _, freeIsY := range []bool{true, false} {
				for round := 0; round < 60; round++ {
					start := rng.Int63n(2000) - 1000
					if round%5 == 0 {
						start = 0
					}
					fixed := interval.Interval{ID: int64(round), Start: start, End: start + rng.Int63n(300)*int64(round%2)}
					vmin := rng.Float64()
					if round < len(vmins) {
						vmin = vmins[round]
					}
					got := compiledCandidateBox(pred, freeIsY, fixed, vmin)
					want := referenceCandidateBox(pred, freeIsY, fixed, vmin)
					if !sameBoxBits(got, want) {
						t.Fatalf("%s (free is y: %t) fixed %v vmin %g: compiled box %+v, reference %+v",
							pred.Name, freeIsY, fixed, vmin, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing compared")
	}
}

func FuzzCandidateBox(f *testing.F) {
	f.Add(uint8(0), true, int64(10), int64(40), 4.0, 16.0, 0.0, 10.0, 37.5, 0.5)
	f.Add(uint8(9), false, int64(-7), int64(-7), 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(uint8(11), true, int64(3), int64(3), 0.0, 16.0, 2.0, 8.0, 1.0, 0.25)
	f.Add(uint8(10), false, int64(0), int64(5), 4.0, 12.0, 0.0, 8.0, 2.0, 0.75)
	f.Add(uint8(12), true, int64(0), int64(0), 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, which uint8, freeIsY bool, start, end int64,
		lamE, rhoE, lamG, rhoG, avg, vmin float64) {
		// Parameters a valid predicate can carry: finite and non-negative
		// (Predicate.Validate rejects negative ones; non-finite ones are
		// where NaN bounds would come from, which no box derivation
		// orders meaningfully).
		for _, x := range []float64{lamE, rhoE, lamG, rhoG, avg} {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Skip()
			}
		}
		if math.IsNaN(vmin) {
			t.Skip()
		}
		pp := scoring.PairParams{Equals: scoring.Params{Lambda: lamE, Rho: rhoE}, Greater: scoring.Params{Lambda: lamG, Rho: rhoG}}
		preds := boxCatalog(pp, avg)
		pred := preds[int(which)%len(preds)]
		fixed := interval.Interval{Start: start, End: end}
		got := compiledCandidateBox(pred, freeIsY, fixed, vmin)
		want := referenceCandidateBox(pred, freeIsY, fixed, vmin)
		if !sameBoxBits(got, want) {
			t.Fatalf("%s (free is y: %t) fixed %v vmin %g params %+v avg %g: compiled box %+v, reference %+v",
				pred.Name, freeIsY, fixed, vmin, pp, avg, got, want)
		}
	})
}
