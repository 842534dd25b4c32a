package topbuckets

import (
	"container/heap"
	"sort"
)

// This file implements the Top Buckets selection of Algorithm 1
// (getTopBuckets) in an order-insensitive, streaming form.
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
// Two deliberate deviations from the printed pseudo-code, both noted in
// DESIGN.md:
//
//  1. Streaming. Ω is O(g^2n) and is never materialized; a bounded
//     min-heap retains just the descending-LB prefix covering k results,
//     and selection is a second streaming pass. Results are identical.
//  2. Tie correctness. The printed algorithm fills the selection in
//     descending-UB order until k results are collected, which under
//     score ties (UB == kthResLB but LB < kthResLB, common when scores
//     saturate at 1.0) can retain filler combinations while pruning the
//     very combinations whose LB established the threshold — breaking
//     Definition 2. We instead select {ω : ω.UB > kthResLB} ∪ H, where
//     H is the minimal descending-LB cover of k results (the set that
//     defined kthResLB). Every pruned ω then has UB <= kthResLB and H
//     certifies it: ∀ω' ∈ H, ω'.LB >= kthResLB >= ω.UB and
//     Σ_{H} nbRes >= k. This preserves the paper's observed behaviour
//     (e.g. a single combination selected for Qb,b) while making the
//     exactness guarantee robust to ties.

// lbCover is a min-heap over (LB, nbRes) retaining the minimal
// descending-LB set of combinations covering at least k results.
type lbCover struct {
	k     float64
	total float64
	items lbHeap
}

type lbItem struct {
	lb    float64
	nbRes float64
	combo Combo
}

type lbHeap []lbItem

func (h lbHeap) Len() int            { return len(h) }
func (h lbHeap) Less(i, j int) bool  { return h[i].lb < h[j].lb }
func (h lbHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *lbHeap) Push(x interface{}) { *h = append(*h, x.(lbItem)) }
func (h *lbHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func newLBCover(k int) *lbCover { return &lbCover{k: float64(k)} }

// add offers one combination to the cover.
func (c *lbCover) add(cb Combo) {
	heap.Push(&c.items, lbItem{lb: cb.LB, nbRes: cb.NbRes, combo: cb})
	c.total += cb.NbRes
	for len(c.items) > 1 && c.total-c.items[0].nbRes >= c.k {
		c.total -= c.items[0].nbRes
		heap.Pop(&c.items)
	}
}

// threshold returns kthResLB: the minimum LB in the cover. When fewer
// than k results exist in total it degrades to the overall minimum LB,
// mirroring Algorithm 1's loop running to completion.
func (c *lbCover) threshold() float64 {
	if len(c.items) == 0 {
		return 0
	}
	return c.items[0].lb
}

// cover returns the covered combinations (H) in descending-LB order.
func (c *lbCover) cover() []Combo {
	out := make([]Combo, len(c.items))
	for i, it := range c.items {
		out[i] = it.combo
	}
	sortCombos(out, func(a, b Combo) bool { return a.LB > b.LB })
	return out
}

// sortCombos sorts with a deterministic tie-break on bucket identity.
func sortCombos(cs []Combo, less func(a, b Combo) bool) {
	sort.Slice(cs, func(i, j int) bool {
		if less(cs[i], cs[j]) {
			return true
		}
		if less(cs[j], cs[i]) {
			return false
		}
		return compareTuples(cs[i].Buckets, cs[j].Buckets) < 0
	})
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
func SelectWithThreshold(k int, combos []Combo) ([]Combo, float64) {
	cover := newLBCover(k)
	for _, c := range combos {
		cover.add(c)
	}
	t := cover.threshold()
	selected := make([]Combo, 0, 16)
	seen := make(map[string]bool)
	for _, c := range cover.cover() {
		selected = append(selected, c)
		seen[c.Key()] = true
	}
	for _, c := range combos {
		if c.UB > t && !seen[c.Key()] {
			selected = append(selected, c)
			seen[c.Key()] = true
		}
	}
	sortCombos(selected, func(a, b Combo) bool { return a.UB > b.UB })
	return selected, t
}

// streamSelector performs the same selection over a two-pass stream:
// pass one feeds every combination to observe, pass two feeds every
// combination to pick, and finalize returns Ω_k,S. The two passes must
// present the same combinations (bounds may be recomputed).
type streamSelector struct {
	k     int
	cover *lbCover
	t     float64
	// pass-two state
	selected []Combo
	seen     map[string]bool
}

func newStreamSelector(k int) *streamSelector {
	return &streamSelector{k: k, cover: newLBCover(k)}
}

// observe is pass one: accumulate the LB cover.
func (s *streamSelector) observe(c Combo) { s.cover.add(c) }

// beginPick freezes the threshold and seeds the selection with H.
func (s *streamSelector) beginPick() {
	s.t = s.cover.threshold()
	s.seen = make(map[string]bool)
	for _, c := range s.cover.cover() {
		s.selected = append(s.selected, c)
		s.seen[c.Key()] = true
	}
}

// pick is pass two: keep every combination clearing the threshold.
func (s *streamSelector) pick(c Combo) {
	if c.UB > s.t {
		if key := c.Key(); !s.seen[key] {
			s.selected = append(s.selected, c)
			s.seen[key] = true
		}
	}
}

// finalize returns Ω_k,S sorted by descending UB.
func (s *streamSelector) finalize() []Combo {
	sortCombos(s.selected, func(a, b Combo) bool { return a.UB > b.UB })
	return s.selected
}
