package solver

import (
	"math"
	"sync"

	"tkij/internal/scoring"
)

// pairOptions is the one solver setting every pair bound is solved at.
// Pair bounds only drive pruning decisions, so 1e-3 accuracy is ample,
// and 512 nodes keeps branch-and-bound off the flat plateaus of
// equals-based predicates. Being a constant, it is not part of a
// PairMemo key.
var pairOptions = Options{MaxNodes: 512, Eps: 1e-3}

// PairBounds is PredicateBounds at the pair-solver setting: the bounds
// of one edge's predicate over the boxes of two buckets (§3.3, lines 1-3
// of Algorithm 2). Every pair bound in the engine — TopBuckets' dense
// tables and every PairMemo miss — is solved through it.
func PairBounds(pred *scoring.Predicate, x, y VertexBox) (lb, ub float64) {
	return PredicateBounds(pred, x, y, pairOptions)
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

// PairMemo memoizes PairBounds. The key is the solver's complete input
// — the predicate's scoring signature and the two vertex boxes — so
// equal keys imply equal bounds whoever asks: one memo is sound across
// reducers, ladder rungs, queries, epochs, subscriptions and isomorphic
// labelings of a shape, and nothing ever invalidates an entry — a
// boundary granule widened by an out-of-range append is simply a
// different key.
//
// A memo lives with whatever reads the same bucket pairs repeatedly: a
// cached plan (every execution after the first finds its bounds solved,
// a standing push's included), or a single join request. Safe for
// concurrent use; a hit does no shared write.
type PairMemo struct {
	m sync.Map // memoKey -> memoBounds
}

// memoKey holds the boxes as IEEE-754 bit patterns (from-box, then
// to-box) so that the runtime hashes and compares them as plain memory
// rather than float by float — the lookup is the join's per-combination
// cost. Distinct bits are distinct keys: at worst a -0 box solves once
// more than it had to.
type memoKey struct {
	sig string
	box [8]uint64
}

type memoBounds struct{ lb, ub float64 }

// NewPairMemo returns an empty memo.
func NewPairMemo() *PairMemo { return new(PairMemo) }

// Bounds returns PairBounds(pred, x, y); sig must be pred.Signature()
// (callers hold it per edge, so a lookup builds no string). solved
// reports that the solver ran — the caller counts solves and reuses, so
// a lookup touches no shared counter. Concurrent first requests may both
// solve (the solve is deterministic, so either result is the result).
func (m *PairMemo) Bounds(pred *scoring.Predicate, sig string, x, y VertexBox) (lb, ub float64, solved bool) {
	k := memoKey{sig: sig, box: [8]uint64{
		math.Float64bits(x.StartLo), math.Float64bits(x.StartHi), math.Float64bits(x.EndLo), math.Float64bits(x.EndHi),
		math.Float64bits(y.StartLo), math.Float64bits(y.StartHi), math.Float64bits(y.EndLo), math.Float64bits(y.EndHi),
	}}
	if v, ok := m.m.Load(k); ok {
		b := v.(memoBounds)
		return b.lb, b.ub, false
	}
	lb, ub = PairBounds(pred, x, y)
	m.m.Store(k, memoBounds{lb, ub})
	return lb, ub, true
}

// Len counts the memo's entries.
func (m *PairMemo) Len() int {
	n := 0
	m.m.Range(func(_, _ any) bool { n++; return true })
	return n
}
