package solver

import (
	"math/rand"
	"testing"

	"tkij/internal/scoring"
)

// Custom predicates (justBefore, shiftMeets, sparks) carry constants and
// multi-endpoint expressions through the solver; their bounds must
// bracket sampled scores like the Allen predicates'.
func TestCustomPredicateBoundsBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const avg = 25.0
	preds := []*scoring.Predicate{
		scoring.JustBefore(scoring.P2, avg),
		scoring.ShiftMeets(scoring.P1, avg),
		scoring.Sparks(scoring.P1),
	}
	for trial := 0; trial < 40; trial++ {
		p := preds[trial%len(preds)]
		x, y := randBox(rng), randBox(rng)
		lb, ub := predicateBounds(p, x, y, setting{maxNodes: 8192})
		for s := 0; s < 4000; s++ {
			px, py := samplePoint(rng, x), samplePoint(rng, y)
			v := [4]float64{px[0], px[1], py[0], py[1]}
			score := 1.0
			for _, term := range p.Terms {
				ts := term.ScoreOfDiff(term.Diff.EvalVars(v))
				if ts < score {
					score = ts
				}
			}
			if score < lb-1e-9 || score > ub+1e-9 {
				t.Fatalf("%s: score %g outside [%g,%g]", p.Name, score, lb, ub)
			}
		}
	}
}

// Shrinking a box must never widen the bounds (enclosure monotonicity —
// the property branch-and-bound convergence rests on).
func TestBoundsMonotoneUnderBoxShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := scoring.Starts(scoring.P1)
	for trial := 0; trial < 30; trial++ {
		x, y := randBox(rng), randBox(rng)
		lb, ub := predicateBounds(p, x, y, setting{maxNodes: 8192})
		// Halve x's start range.
		shrunk := x
		shrunk.StartHi = (x.StartLo + x.StartHi) / 2
		slb, sub := predicateBounds(p, shrunk, y, setting{maxNodes: 8192})
		if sub > ub+1e-6 {
			t.Fatalf("shrunk UB %g exceeds parent UB %g", sub, ub)
		}
		if slb < lb-1e-6 {
			t.Fatalf("shrunk LB %g below parent LB %g", slb, lb)
		}
	}
}

// A single-term predicate's bounds, its enclosure, must agree with
// branch-and-bound.
func TestSingleTermFastPathAgreesWithBnB(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	single := scoring.Meets(scoring.P1) // one equals term
	for trial := 0; trial < 50; trial++ {
		x, y := randBox(rng), randBox(rng)
		flb, fub := predicateBounds(single, x, y, setting{})
		// Force the search by duplicating the term — min(t, t) == t, and
		// two terms sharing endpoints are not separable.
		dup := &scoring.Predicate{Name: "dup", Terms: []scoring.Term{single.Terms[0], single.Terms[0]}}
		glb, gub := predicateBounds(dup, x, y, setting{maxNodes: 20000})
		if diff := fub - gub; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("fast-path UB %g vs B&B UB %g", fub, gub)
		}
		if diff := flb - glb; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("fast-path LB %g vs B&B LB %g", flb, glb)
		}
	}
}
