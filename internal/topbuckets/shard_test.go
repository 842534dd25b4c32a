package topbuckets

import (
	"fmt"
	"sort"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

// A plan does not depend on how many workers a run may use: at 1, 2, 5
// and 16 workers every strategy selects the same combinations with the
// same bounds in the same order, at the same kthResLB, after the same
// solver work.
func TestShardedLooseConsistentAcrossWorkers(t *testing.T) {
	cols := synthCollections(3, 80, 19)
	ms := matricesFor(t, cols, 6)
	env := query.Env{Params: scoring.P1}
	q := query.Qom(env)
	const k = 20

	for _, st := range []Strategy{Loose, TwoPhase, BruteForce} {
		var baseline *Result
		for _, workers := range []int{1, 2, 5, 16} {
			res, err := Run(q, ms, k, Options{Strategy: st, workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", st, workers, err)
			}
			if baseline == nil {
				baseline = res
				continue
			}
			what := fmt.Sprintf("%s workers=%d", st, workers)
			sameSelection(t, what, res.Selected, baseline.Selected)
			if res.KthResLB != baseline.KthResLB || res.PairSolverCalls != baseline.PairSolverCalls ||
				res.TightSolverCalls != baseline.TightSolverCalls {
				t.Fatalf("%s: kthResLB %g, solver calls %d/%d; at 1 worker %g, %d/%d", what,
					res.KthResLB, res.PairSolverCalls, res.TightSolverCalls,
					baseline.KthResLB, baseline.PairSolverCalls, baseline.TightSolverCalls)
			}
		}
	}
}

// KthResLB must be a valid lower bound on the true k-th score.
func TestKthResLBIsValidLowerBound(t *testing.T) {
	cols := synthCollections(2, 70, 37)
	ms := matricesFor(t, cols, 5)
	pp := scoring.P1
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Overlaps(pp)}}, scoring.Avg{})
	const k = 15
	res, err := Run(q, ms, k, Options{Strategy: Loose})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive k-th score.
	var scores []float64
	for _, x := range cols[0].Items {
		for _, y := range cols[1].Items {
			scores = append(scores, q.Score([]interval.Interval{x, y}))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	kth := scores[k-1]
	if res.KthResLB > kth+1e-9 {
		t.Fatalf("kthResLB %g exceeds true k-th score %g", res.KthResLB, kth)
	}
}
