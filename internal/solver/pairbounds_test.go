package solver

import (
	"math/rand"
	"testing"

	"tkij/internal/scoring"
)

// pairCase is one (predicate, box pair) a pair-bound test asks for.
type pairCase struct {
	pred *scoring.Predicate
	x, y VertexBox
}

func pairCases(rng *rand.Rand, n int) []pairCase {
	preds := tightnessPreds()
	cases := make([]pairCase, n)
	for i := range cases {
		cases[i] = pairCase{pred: preds[i%len(preds)], x: smallBox(rng), y: smallBox(rng)}
	}
	return cases
}

// Every pair PairBounds returns brackets the scores sampled from its
// boxes.
func TestPairBoundsBracketSamples(t *testing.T) {
	for _, c := range pairCases(rand.New(rand.NewSource(8)), 18) {
		lb, ub := PairBounds(c.pred, c.x, c.y)
		sawLo, sawHi := gridScoreRange(c.pred, c.x, c.y, 8)
		if sawHi > ub+1e-9 || sawLo < lb-1e-9 {
			t.Fatalf("%s: samples [%g,%g] escape bounds [%g,%g]", c.pred.Name, sawLo, sawHi, lb, ub)
		}
	}
}
