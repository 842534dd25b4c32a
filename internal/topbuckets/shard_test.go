package topbuckets

import (
	"sort"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

// The sharded loose enumeration (parallel over B_1 groups, as in the
// paper's distributed TopBuckets) must produce a selection with the same
// guarantees regardless of worker count: the kthResLB threshold must
// match, and the result sets must cover each other's certificates.
func TestShardedLooseConsistentAcrossWorkers(t *testing.T) {
	cols := synthCollections(3, 80, 19)
	ms := matricesFor(t, cols, 6)
	env := query.Env{Params: scoring.P1}
	q := query.Qom(env)
	const k = 20

	var baseline *Result
	for _, workers := range []int{1, 2, 5, 16} {
		res, err := Run(q, ms, k, Options{Strategy: Loose, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if res.KthResLB != baseline.KthResLB {
			t.Fatalf("workers=%d: kthResLB %g != %g", workers, res.KthResLB, baseline.KthResLB)
		}
		// Selections may differ in tie handling but must agree on size
		// within the UB==threshold tie class and on total guarantees.
		if res.SelectedResults < float64(k) && baseline.SelectedResults >= float64(k) {
			t.Fatalf("workers=%d: selection lost the k-result guarantee", workers)
		}
		// Every combination with UB above the threshold must be present
		// in both.
		want := make(map[string]bool)
		for _, c := range baseline.Selected {
			if c.UB > baseline.KthResLB {
				want[tupleKey(c)] = true
			}
		}
		got := make(map[string]bool)
		for _, c := range res.Selected {
			got[tupleKey(c)] = true
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("workers=%d: above-threshold combination missing", workers)
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
