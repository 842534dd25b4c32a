// Package solver computes score bounds for bucket combinations — the
// Bounds Problem of §3.3. The paper delegates this to the Choco
// constraint-programming solver; this reproduction substitutes an
// interval-arithmetic branch-and-bound optimizer, which is exact for the
// same problem class: maximize (or minimize) a monotone aggregation of
// scored predicates, each a min-conjunction of piecewise-linear unimodal
// functions of linear endpoint expressions, subject to every endpoint
// lying in its granule (constraints (1)(2)).
//
// Interval extensions of the comparator curves give valid enclosures of
// the objective over any endpoint box; best-first branch-and-bound
// shrinks the enclosure until the bound gap falls below eps. The
// returned bounds are always *safe*: UB >= true maximum and LB <= true
// minimum, so pruning decisions based on them never sacrifice
// correctness, only (marginally) efficiency when the node budget is hit.
//
// Over one bucket pair (PairBounds) the enclosure of the whole box
// is already exact on the minimum of every predicate and on the maximum
// of every separable one, so the search runs only for the maximum of
// s-overlaps, s-sparks and s-justBefore. Over a combination
// (QueryBoundsCert) edges that share a vertex share variables, and both
// sides are searched.
package solver

import (
	"slices"
	"sync"

	"tkij/internal/query"
	"tkij/internal/scoring"
)

// VertexBox is the endpoint domain of one query vertex inside a bucket:
// the start variable ranges over the bucket's start granule and the end
// variable over its end granule.
type VertexBox struct {
	StartLo, StartHi float64
	EndLo, EndHi     float64
}

// width returns the extent of the requested variable (0 = start, 1 = end).
func (b VertexBox) width(v int) float64 {
	if v == 0 {
		return b.StartHi - b.StartLo
	}
	return b.EndHi - b.EndLo
}

// mid returns the midpoint of the requested variable.
func (b VertexBox) mid(v int) float64 {
	if v == 0 {
		return (b.StartLo + b.StartHi) / 2
	}
	return (b.EndLo + b.EndHi) / 2
}

// split halves the box along variable v.
func (b VertexBox) split(v int) (lo, hi VertexBox) {
	lo, hi = b, b
	m := b.mid(v)
	if v == 0 {
		lo.StartHi, hi.StartLo = m, m
	} else {
		lo.EndHi, hi.EndLo = m, m
	}
	return lo, hi
}

// setting tunes the branch-and-bound search. The engine solves every
// bound at one setting, engineSetting; only this package's tests vary it.
type setting struct {
	// eps is the accepted gap between the returned bound and the true
	// optimum. Defaults to 1e-6.
	eps float64
	// maxNodes caps the number of explored boxes per optimization;
	// exceeding it returns the current (still safe, possibly loose)
	// bound. Defaults to 4096.
	maxNodes int
}

// engineSetting is the one setting every bound the engine solves uses,
// pair and combination alike. Bounds only drive pruning decisions, so
// 1e-3 accuracy is ample, and 512 nodes keeps branch-and-bound off the
// flat plateaus of equals-based predicates, where 1e-6 convergence costs
// milliseconds per call.
var engineSetting = setting{eps: 1e-3, maxNodes: 512}

func (o setting) withDefaults() setting {
	if o.eps <= 0 {
		o.eps = 1e-6
	}
	if o.maxNodes <= 0 {
		o.maxNodes = 4096
	}
	return o
}

// lo4/hi4 project the boxes of an edge's two vertices onto the canonical
// comparator variable order (x̲, x̄, y̲, ȳ).
func edgeBounds(from, to VertexBox) (lo, hi [4]float64) {
	lo = [4]float64{from.StartLo, from.EndLo, to.StartLo, to.EndLo}
	hi = [4]float64{from.StartHi, from.EndHi, to.StartHi, to.EndHi}
	return
}

// predicateEnclosure returns a valid enclosure of pred's score over the
// given edge box: every concrete (x, y) drawn from the box scores within
// [lo, hi]. min is monotone, so the min of per-term enclosure
// lows/highs encloses the min of the terms.
func predicateEnclosure(pred *scoring.Predicate, lo4, hi4 [4]float64) (lo, hi float64) {
	lo, hi = 1, 1
	for i := range pred.Terms {
		t := &pred.Terms[i] // by pointer: a Term is 144 bytes
		dlo, dhi := t.Diff.Range(lo4, hi4)
		slo, shi := t.ScoreRange(dlo, dhi)
		if slo < lo {
			lo = slo
		}
		if shi < hi {
			hi = shi
		}
	}
	return lo, hi
}

// enclose returns a valid enclosure of the query's aggregate score over
// the vertex boxes, using the aggregator's monotonicity. los and his
// hold one slot per edge and are overwritten.
func enclose(q *query.Query, boxes []VertexBox, los, his []float64) (lo, hi float64) {
	for i, e := range q.Edges {
		l4, h4 := edgeBounds(boxes[e.From], boxes[e.To])
		los[i], his[i] = predicateEnclosure(e.Pred, l4, h4)
	}
	return q.Agg.Aggregate(los), q.Agg.Aggregate(his)
}

// evalAt computes the exact aggregate score at a concrete assignment
// (the midpoint of a box, used to raise the incumbent). partials holds
// one slot per edge and is overwritten.
func evalAt(q *query.Query, pts [][2]float64, partials []float64) float64 {
	for i, e := range q.Edges {
		v := [4]float64{pts[e.From][0], pts[e.From][1], pts[e.To][0], pts[e.To][1]}
		s := 1.0
		for j := range e.Pred.Terms {
			t := &e.Pred.Terms[j]
			ts := t.ScoreOfDiff(t.Diff.EvalVars(v))
			if ts < s {
				s = ts
			}
		}
		partials[i] = s
	}
	return q.Agg.Aggregate(partials)
}

// search is the scratch of branch-and-bound: the open nodes, their
// boxes and the per-edge buffers of enclose and evalAt. It is reused
// across bound computations through searchPool, so a search does no
// per-node allocation once its buffers have grown; a goroutine owns one
// from Get to Put.
type search struct {
	// arena holds the vertex boxes of open nodes, n consecutive boxes
	// per node; free lists the offsets of closed nodes for reuse.
	arena []VertexBox
	free  []int
	open  openHeap
	// child holds the vertex boxes of the node being bounded, copied into
	// the arena only if it is opened.
	child              []VertexBox
	los, his, partials []float64
	pts                [][2]float64
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// fit sizes the per-vertex and per-edge buffers for one query.
func (s *search) fit(vertices, edges int) {
	s.child, s.pts = sized(s.child, vertices), sized(s.pts, vertices)
	s.los, s.his, s.partials = sized(s.los, edges), sized(s.his, edges), sized(s.partials, edges)
}

// sized returns buf resliced to n elements, reallocated only when its
// capacity is short.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// openNode is one open box in the search tree: its boxes at
// arena[off:off+n] and the bound of its enclosure.
type openNode struct {
	off   int
	bound float64 // hi of enclosure when maximizing, -lo when minimizing
}

// openHeap is a max-heap on bound. push and pop are container/heap's
// Push and Pop with up and down copied line for line, so nodes of equal
// bound are opened in the same order as through the interface.
type openHeap []openNode

func (h *openHeap) push(nd openNode) {
	*h = append(*h, nd)
	h.up(len(*h) - 1)
}

func (h *openHeap) pop() openNode {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	nd := old[n]
	*h = old[:n]
	return nd
}

func (h openHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].bound > h[i].bound) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h openHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].bound > h[j1].bound {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].bound > h[i].bound) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Cert is the certificate attached to a bound computation: how much
// branch-and-bound work produced it and whether the search converged
// within Eps or was truncated by the node budget. Bounds are *safe*
// either way (UB >= max, LB <= min); a non-converged certificate only
// means they may be looser than Eps. The plan cache uses the
// certificate to account the solver work an entry embodies (its
// retention cost).
type Cert struct {
	// Nodes is the number of boxes branch-and-bound opened across both
	// optimizations (maximize + minimize).
	Nodes int
	// Converged reports whether both searches closed their bound gap
	// below Eps before hitting MaxNodes.
	Converged bool
}

// QueryBoundsCert solves the Bounds Problem: the tight lower and upper
// bound of the query's aggregate score when each vertex's endpoints range
// over its bucket box, and the work certificate of the two
// optimizations. Safe even when the node budget truncates the search.
func QueryBoundsCert(q *query.Query, boxes []VertexBox) (lb, ub float64, cert Cert) {
	return queryBoundsCert(q, boxes, engineSetting)
}

func queryBoundsCert(q *query.Query, boxes []VertexBox, opts setting) (lb, ub float64, cert Cert) {
	opts = opts.withDefaults()
	s := searchPool.Get().(*search)
	s.fit(len(boxes), len(q.Edges))
	ub, upNodes, upConv := s.optimize(q, boxes, opts, true)
	lb, loNodes, loConv := s.optimize(q, boxes, opts, false)
	searchPool.Put(s)
	return lb, ub, Cert{Nodes: upNodes + loNodes, Converged: upConv && loConv}
}

// predicateBounds returns bounds for a single scored predicate over an
// (x, y) bucket pair — the unit of work of the loose strategy, where the
// solver assigns only 4 variables (§3.3).
//
// The enclosure of the whole box is exact wherever the predicate's
// structure allows, and branch-and-bound runs only where it does not:
//   - LB is always the enclosure's lo. A predicate is a min of terms and
//     each term's range over the box is attained, so the min over the box
//     of the min of the terms is the min of the terms' minima.
//   - UB is the enclosure's hi when the predicate is separable — no
//     endpoint appears in two terms (every single-term predicate,
//     s-equals, s-starts, s-finishedBy, s-contains): each term then
//     reaches its maximum on its own endpoints, all at once.
//   - Otherwise (s-overlaps, s-sparks, s-justBefore) UB is the
//     maximizing search alone.
//
// Both shortcuts equal what the two-sided search of QueryBoundsCert
// returns over the one-edge query, bit for bit
// (TestPairBoundsEnclosureExact).
func predicateBounds(pred *scoring.Predicate, x, y VertexBox, opts setting) (lb, ub float64) {
	lo4, hi4 := edgeBounds(x, y)
	lb, ub = predicateEnclosure(pred, lo4, hi4)
	if separable(pred) {
		return lb, ub
	}
	q := &query.Query{
		Name:        "pair",
		NumVertices: 2,
		Edges:       []query.Edge{{From: 0, To: 1, Pred: pred}},
		Agg:         scoring.Avg{},
	}
	s := searchPool.Get().(*search)
	s.fit(2, 1)
	ub, _, _ = s.optimize(q, []VertexBox{x, y}, opts.withDefaults(), true)
	searchPool.Put(s)
	return lb, ub
}

// separable reports whether no endpoint has a nonzero coefficient in
// the differences of two of pred's terms.
func separable(pred *scoring.Predicate) bool {
	var used [4]bool
	for i := range pred.Terms {
		for v, c := range pred.Terms[i].Diff.Coef {
			if c == 0 {
				continue
			}
			if used[v] {
				return false
			}
			used[v] = true
		}
	}
	return true
}

// optimize runs best-first branch-and-bound. maximize=true returns a
// value >= the true maximum (within Eps when converged); maximize=false
// returns a value <= the true minimum. It also reports the number of
// nodes opened and whether the search converged within Eps (false only
// when the node budget cut it short).
func (s *search) optimize(q *query.Query, boxes []VertexBox, opts setting, maximize bool) (float64, int, bool) {
	sign := 1.0
	if !maximize {
		sign = -1
	}
	n := len(boxes)
	s.arena, s.free, s.open = s.arena[:0], s.free[:0], s.open[:0]

	root := s.alloc(n)
	copy(s.arena[root:root+n], boxes)
	s.open.push(openNode{off: root, bound: s.bound(q, boxes, maximize)})
	incumbent := s.sample(q, boxes, sign) // achieved value: a safe inner bound
	// pruned tracks the largest bound among boxes we chose not to open;
	// the true optimum may hide there, so the returned (outer) bound is
	// never allowed below it.
	pruned := incumbent
	nodes := 0
	for len(s.open) > 0 {
		top := s.open.pop()
		if top.bound <= incumbent+opts.eps || nodes >= opts.maxNodes {
			// top.bound dominates every open node (max-heap) and pruned
			// children are tracked separately: this is a safe outer bound.
			return sign * maxf(top.bound, pruned), nodes, nodes < opts.maxNodes
		}
		nodes++
		// Branch on the widest variable.
		bestV, bestVar, bestW := 0, 0, -1.0
		for i, b := range s.arena[top.off : top.off+n] {
			for v := 0; v < 2; v++ {
				if w := b.width(v); w > bestW {
					bestV, bestVar, bestW = i, v, w
				}
			}
		}
		if bestW <= 1e-9 {
			// Degenerate point box: the enclosure is exact there.
			if top.bound > pruned {
				pruned = top.bound
			}
			if top.bound > incumbent {
				incumbent = top.bound
			}
			s.free = append(s.free, top.off)
			continue
		}
		loBox, hiBox := s.arena[top.off+bestV].split(bestVar)
		for _, nb := range [2]VertexBox{loBox, hiBox} {
			// Re-slice per child: opening the first may grow the arena.
			copy(s.child, s.arena[top.off:top.off+n])
			s.child[bestV] = nb
			b := s.bound(q, s.child, maximize)
			if sm := s.sample(q, s.child, sign); sm > incumbent {
				incumbent = sm
			}
			if b > incumbent+opts.eps {
				off := s.alloc(n)
				copy(s.arena[off:off+n], s.child)
				s.open.push(openNode{off: off, bound: b})
			} else if b > pruned {
				pruned = b
			}
		}
		s.free = append(s.free, top.off)
	}
	return sign * maxf(incumbent, pruned), nodes, true
}

// alloc returns the arena offset of room for one node's n boxes.
func (s *search) alloc(n int) int {
	if k := len(s.free); k > 0 {
		off := s.free[k-1]
		s.free = s.free[:k-1]
		return off
	}
	off := len(s.arena)
	s.arena = slices.Grow(s.arena, n)[:off+n]
	return off
}

// bound is the enclosure side the search orders nodes by: hi when
// maximizing, -lo when minimizing.
func (s *search) bound(q *query.Query, boxes []VertexBox, maximize bool) float64 {
	lo, hi := enclose(q, boxes, s.los, s.his)
	if maximize {
		return hi
	}
	return -lo
}

// sample is the signed score at the boxes' midpoint.
func (s *search) sample(q *query.Query, boxes []VertexBox, sign float64) float64 {
	for i, b := range boxes {
		s.pts[i] = [2]float64{b.mid(0), b.mid(1)}
	}
	return sign * evalAt(q, s.pts, s.partials)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PairBounds is predicateBounds at the engine's setting: the bounds
// of one edge's predicate over the boxes of two buckets (§3.3, lines 1-3
// of Algorithm 2). Every pair bound in the engine — a plan's tables and
// brute force's list, which no plan bounded — is solved through it.
func PairBounds(pred *scoring.Predicate, x, y VertexBox) (lb, ub float64) {
	return predicateBounds(pred, x, y, engineSetting)
}

// PairEnclosure is the enclosure of pred over the root (x, y) box, the
// first step of PairBounds and all of it where exact: lo is PairBounds'
// LB bit for bit, and hi is its UB when exact (pred is separable) and an
// upper bound on that UB otherwise — a search only ever lowers the
// root's bound (FuzzPairBounds). It costs one pass over pred's terms.
func PairEnclosure(pred *scoring.Predicate, x, y VertexBox) (lo, hi float64, exact bool) {
	lo4, hi4 := edgeBounds(x, y)
	lo, hi = predicateEnclosure(pred, lo4, hi4)
	return lo, hi, separable(pred)
}
