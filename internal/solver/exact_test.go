package solver

import (
	"math"
	"math/rand"
	"testing"

	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// pairCatalog is the ten catalog predicates at pp; avg feeds the two
// that take the average interval length.
func pairCatalog(pp scoring.PairParams, avg float64) []*scoring.Predicate {
	return []*scoring.Predicate{
		scoring.Before(pp), scoring.Equals(pp), scoring.Meets(pp),
		scoring.Overlaps(pp), scoring.Contains(pp), scoring.Starts(pp),
		scoring.FinishedBy(pp), scoring.JustBefore(pp, avg),
		scoring.ShiftMeets(pp, avg), scoring.Sparks(pp),
	}
}

// searchedPairBounds is the reference PairBounds is held to: the
// two-sided branch-and-bound over the one-edge query at the pair-solver
// setting.
func searchedPairBounds(pred *scoring.Predicate, x, y VertexBox) (lb, ub float64) {
	q := &query.Query{
		Name:        "pair",
		NumVertices: 2,
		Edges:       []query.Edge{{From: 0, To: 1, Pred: pred}},
		Agg:         scoring.Avg{},
	}
	lb, ub, _ = queryBoundsCert(q, []VertexBox{x, y}, engineSetting)
	return lb, ub
}

// scoreAt is pred's score at the endpoint assignment v = (x̲, x̄, y̲, ȳ).
func scoreAt(pred *scoring.Predicate, v [4]float64) float64 {
	s := 1.0
	for i := range pred.Terms {
		t := &pred.Terms[i]
		s = math.Min(s, t.ScoreOfDiff(t.Diff.EvalVars(v)))
	}
	return s
}

// checkPairBounds asserts the three properties of PairBounds over one
// box pair: it equals the two-sided search bit for bit, its UB never
// exceeds the root enclosure's hi (the lazy plan's best-first walk
// orders combinations by that hi before it solves them), and it brackets the
// score at every corner and at the midpoint of the box. The bracket
// allows 1e-9, as the package's other bracket tests do: an enclosure
// adds a difference's constant first and a score adds it last, so the
// two can round an ulp apart (s-shiftMeets, s-justBefore).
func checkPairBounds(t *testing.T, pred *scoring.Predicate, x, y VertexBox) {
	t.Helper()
	lb, ub := PairBounds(pred, x, y)
	wlb, wub := searchedPairBounds(pred, x, y)
	if math.Float64bits(lb) != math.Float64bits(wlb) || math.Float64bits(ub) != math.Float64bits(wub) {
		t.Fatalf("%s x=%+v y=%+v: PairBounds [%v,%v], the two-sided search [%v,%v]", pred.Name, x, y, lb, ub, wlb, wub)
	}
	if _, hi, _ := PairEnclosure(pred, x, y); ub > hi {
		t.Fatalf("%s x=%+v y=%+v: UB %v above the root enclosure's hi %v", pred.Name, x, y, ub, hi)
	}
	lo4, hi4 := edgeBounds(x, y)
	check := func(v [4]float64) {
		if s := scoreAt(pred, v); s < lb-1e-9 || s > ub+1e-9 {
			t.Fatalf("%s x=%+v y=%+v: score %v at %v outside [%v,%v]", pred.Name, x, y, s, v, lb, ub)
		}
	}
	for c := 0; c < 16; c++ {
		var v [4]float64
		for d := range v {
			if v[d] = lo4[d]; c&(1<<d) != 0 {
				v[d] = hi4[d]
			}
		}
		check(v)
	}
	var mid [4]float64
	for d := range mid {
		mid[d] = (lo4[d] + hi4[d]) / 2
	}
	check(mid)
}

// gridBoxes is every bucket box of a g-granule grid over [0, 240] whose
// observed extent [-37, 301] widens both boundary granules: one box per
// (start granule, end granule >= start granule).
func gridBoxes(g int) []VertexBox {
	gran, err := stats.NewGranulation(0, 240, g)
	if err != nil {
		panic(err)
	}
	grid := stats.Grid{Gran: gran, Lo: -37, Hi: 301}
	var boxes []VertexBox
	for s := 0; s < g; s++ {
		for e := s; e < g; e++ {
			var b VertexBox
			b.StartLo, b.StartHi = grid.Bounds(s)
			b.EndLo, b.EndHi = grid.Bounds(e)
			boxes = append(boxes, b)
		}
	}
	return boxes
}

// PairBounds takes the root enclosure as LB, and as UB where the
// predicate is separable, and searches only the UB of the others. Over
// every catalog predicate, two parameter sets with ρ stepped off its
// round value, and bucket pairs of three granularities whose boundary
// granules are widened, that must equal the two-sided search bit for
// bit — the plans built from pair bounds stay bit-identical — and
// bracket the score at every box corner and midpoint. Granules of 6 to
// 30 time units put the ramps of P1 and P2 across granule boundaries,
// where the enclosure of a shared-variable predicate can overestimate
// its maximum; the sample favours pairs whose enclosure is not a single
// value, the only ones where the search has work to do.
func TestPairBoundsEnclosureExact(t *testing.T) {
	const cellPairs = 60 // bucket pairs per (g, parameters, ρ, predicate)
	for _, g := range []int{8, 20, 40} {
		boxes := gridBoxes(g)
		rng := rand.New(rand.NewSource(int64(g)))
		for _, base := range []scoring.PairParams{scoring.P1, scoring.P2} {
			for step := 0; step < 8; step++ {
				pp := base
				pp.Equals.Rho += 0.001 * float64(step)
				pp.Greater.Rho += 0.001 * float64(step)
				for _, pred := range pairCatalog(pp, 13+0.25*float64(step)) {
					for checked := 0; checked < cellPairs; {
						x, y := boxes[rng.Intn(len(boxes))], boxes[rng.Intn(len(boxes))]
						lo4, hi4 := edgeBounds(x, y)
						if lo, hi := predicateEnclosure(pred, lo4, hi4); lo == hi && rng.Intn(64) != 0 {
							continue
						}
						checkPairBounds(t, pred, x, y)
						checked++
					}
				}
			}
		}
	}
}

// FuzzPairBounds holds PairBounds to the two-sided search and to the
// score over fuzzed boxes, parameters and predicates.
func FuzzPairBounds(f *testing.F) {
	f.Add(uint8(3), 0.0, 20.0, 10.0, 30.0, 10.0, 20.0, 20.0, 30.0, 4.0, 16.0, 0.0, 10.0, 25.0)
	f.Add(uint8(9), -37.0, 30.0, 0.0, 60.0, 30.0, 6.0, 90.0, 211.0, 0.0, 16.0, 2.0, 8.0, 13.0)
	f.Add(uint8(7), 100.0, 12.0, 100.0, 12.0, 96.0, 12.0, 112.0, 12.0, 4.0, 12.0, 0.0, 8.0, 9.5)
	f.Fuzz(func(t *testing.T, which uint8, xs, xsw, xe, xew, ys, ysw, ye, yew, lamE, rhoE, lamG, rhoG, avg float64) {
		// Boxes and parameters a bucket pair can have: finite endpoints
		// of a plausible time range, non-negative widths and parameters.
		for _, v := range []float64{xs, xe, ys, ye} {
			if !(math.Abs(v) <= 1e7) {
				t.Skip()
			}
		}
		for _, v := range []float64{xsw, xew, ysw, yew, lamE, rhoE, lamG, rhoG, avg} {
			if !(v >= 0 && v <= 1e6) {
				t.Skip()
			}
		}
		pp := scoring.PairParams{Equals: scoring.Params{Lambda: lamE, Rho: rhoE}, Greater: scoring.Params{Lambda: lamG, Rho: rhoG}}
		preds := pairCatalog(pp, avg)
		x := VertexBox{StartLo: xs, StartHi: xs + xsw, EndLo: xe, EndHi: xe + xew}
		y := VertexBox{StartLo: ys, StartHi: ys + ysw, EndLo: ye, EndHi: ye + yew}
		checkPairBounds(t, preds[int(which)%len(preds)], x, y)
	})
}
