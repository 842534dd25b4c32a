package topbuckets

import (
	"cmp"
	"slices"
)

// This file implements the Top Buckets selection of Algorithm 1
// (getTopBuckets) over a materialized combination list; Plan walks the
// same selection without materializing Ω.
//
// Algorithm 1 computes kthResLB — a lower bound on the score of the k-th
// result — as the LB of the combination at which the cumulative result
// count of combinations, visited in descending-LB order, first reaches
// k. Equivalently (and independent of visit order):
//
//	kthResLB = max { t : Σ_{ω : ω.LB >= t} ω.nbRes >= k }
//
// It then keeps combinations whose UB clears that threshold.
//
// Two deliberate deviations from the printed pseudo-code:
//
//  1. Ties. Combinations of equal LB are visited by bucket tuple,
//     largest first, so the cover H — the descending-LB prefix that
//     reaches k results — is one set whatever order Ω is produced in:
//     a cover that evicts its lowest LB while the rest still covers k
//     evicts, among equal LBs, the smallest tuple first.
//  2. Tie correctness. The printed algorithm fills the selection in
//     descending-UB order until k results are collected, which under
//     score ties (UB == kthResLB but LB < kthResLB, common when scores
//     saturate at 1.0) can retain filler combinations while pruning the
//     very combinations whose LB established the threshold — breaking
//     Definition 2. We instead select {ω : ω.UB > kthResLB} ∪ H. Every
//     pruned ω then has UB <= kthResLB and H certifies it: ∀ω' ∈ H,
//     ω'.LB >= kthResLB >= ω.UB and Σ_{H} nbRes >= k. This preserves
//     the paper's observed behaviour (e.g. a single combination
//     selected for Qb,b) while making the exactness guarantee robust to
//     ties. When Ω holds fewer than k results, H is all of Ω and
//     kthResLB its least LB, as Algorithm 1's loop running to
//     completion leaves it.

// byUB is the order of Ω_k,S — the access order of the join phase:
// descending UB, ties broken by bucket tuple.
func byUB(a, b Combo) int {
	switch {
	case a.UB > b.UB:
		return -1
	case a.UB < b.UB:
		return 1
	}
	return compareTuples(a.Buckets, b.Buckets)
}

// byLB is the order H is taken in: descending LB, ties broken by bucket
// tuple, largest first.
func byLB(a, b Combo) int {
	if c := cmp.Compare(b.LB, a.LB); c != 0 {
		return c
	}
	return compareTuples(b.Buckets, a.Buckets)
}

// SelectList runs Top Buckets selection over a materialized combination
// list (the brute-force and two-phase paths, and tests). It returns
// Ω_k,S sorted by descending UB.
func SelectList(k int, combos []Combo) []Combo {
	selected, _ := SelectWithThreshold(k, combos)
	return selected
}

// SelectWithThreshold is SelectList additionally returning kthResLB —
// the certified lower bound on the k-th result's score. The join phase
// uses it as a score floor: no result below it can reach the top-k.
// The combinations must have pairwise distinct bucket tuples.
func SelectWithThreshold(k int, combos []Combo) ([]Combo, float64) {
	order := make([]int, len(combos))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return byLB(combos[a], combos[b]) })
	inCover := make([]bool, len(combos))
	t, covered := 0.0, 0.0
	for _, i := range order {
		if covered >= float64(k) {
			break
		}
		inCover[i] = true
		t = combos[i].LB
		covered += combos[i].NbRes
	}
	selected := []Combo{}
	for i, c := range combos {
		if c.UB > t || inCover[i] {
			selected = append(selected, c)
		}
	}
	slices.SortFunc(selected, byUB)
	return selected, t
}
