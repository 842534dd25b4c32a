package topbuckets

import (
	"cmp"
	"slices"
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
//     and the same single pass keeps only the combinations that can still
//     clear its threshold. Results are identical.
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

// candidate is one combination as selection sees it: its bounds, its
// result count, and its position — row-major in Ω for the enumeration,
// the index of a materialized list — which stands for its bucket tuple
// until the tuple is built.
type candidate struct {
	pos           int
	lb, ub, nbRes float64
}

// lbCover is a min-heap on LB retaining the minimal descending-LB set of
// candidates covering at least k results. add is container/heap's Push
// and Pop with up and down copied line for line, so candidates of equal
// LB leave the cover in the same order as through the interface.
type lbCover struct {
	k     float64
	total float64
	items []candidate
}

// add offers one candidate to the cover.
func (c *lbCover) add(it candidate) {
	c.items = append(c.items, it)
	c.up(len(c.items) - 1)
	c.total += it.nbRes
	for len(c.items) > 1 && c.total-c.items[0].nbRes >= c.k {
		c.total -= c.items[0].nbRes
		n := len(c.items) - 1
		c.items[0], c.items[n] = c.items[n], c.items[0]
		c.down(0, n)
		c.items = c.items[:n]
	}
}

func (c *lbCover) up(j int) {
	h := c.items
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].lb < h[i].lb) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (c *lbCover) down(i0, n int) {
	h := c.items
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].lb < h[j1].lb {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].lb < h[i].lb) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
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

// selector performs Top Buckets selection in one pass: offer takes every
// combination once, pick returns Ω_k,S.
type selector struct {
	cover lbCover
	kept  []candidate
}

func newSelector(k int) *selector { return &selector{cover: lbCover{k: float64(k)}} }

// offer feeds a candidate to the cover and keeps it if it can still be
// selected. Until the cover holds k results any candidate can; from then
// on the threshold only rises (a candidate below the cover's minimum is
// popped again at once, one above it can only push the minimum up), so a
// candidate whose UB does not clear the current threshold cannot clear
// the final kthResLB.
func (s *selector) offer(it candidate) {
	s.cover.add(it)
	if s.cover.total < s.cover.k || it.ub > s.cover.threshold() {
		s.kept = append(s.kept, it)
	}
}

// pick returns Ω_k,S — the cover H and every kept candidate with UB
// above kthResLB — in position order, and kthResLB.
func (s *selector) pick() ([]candidate, float64) {
	t := s.cover.threshold()
	cover := slices.Clone(s.cover.items)
	slices.SortFunc(cover, func(a, b candidate) int { return cmp.Compare(a.pos, b.pos) })
	picked := make([]candidate, 0, len(cover)+len(s.kept))
	// Kept candidates are in position order: merge the cover into them,
	// so that a kept candidate the cover holds is picked once.
	i := 0
	for _, it := range s.kept {
		for i < len(cover) && cover[i].pos < it.pos {
			picked = append(picked, cover[i])
			i++
		}
		if i < len(cover) && cover[i].pos == it.pos {
			i++
		} else if !(it.ub > t) {
			continue
		}
		picked = append(picked, it)
	}
	return append(picked, cover[i:]...), t
}

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
	s := newSelector(k)
	for i := range combos {
		c := &combos[i]
		s.offer(candidate{pos: i, lb: c.LB, ub: c.UB, nbRes: c.NbRes})
	}
	picked, t := s.pick()
	selected := make([]Combo, len(picked))
	for i, it := range picked {
		selected[i] = combos[it.pos]
	}
	slices.SortFunc(selected, byUB)
	return selected, t
}
