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

// PairMemo memoizes PairBounds. The key is the solver's complete input
// — the predicate's scoring signature and the two vertex boxes — so
// equal keys imply equal bounds whoever asks: one memo is sound across
// reducers, ladder rungs, queries, epochs, subscriptions and isomorphic
// labelings of a shape, and nothing ever invalidates an entry — a
// boundary granule widened by an out-of-range append is simply a
// different key.
//
// A memo lives with whatever reads the same bucket pairs repeatedly: a
// cached plan (every execution after the first finds its bounds
// solved), a standing subscription (a push re-solves only pairs whose
// box changed, and its probe nothing at all), or a single join request.
// Safe for concurrent use; a hit does no shared write.
type PairMemo struct {
	cur *sync.Map // memoKey -> memoBounds
	// prev is the map of the memo this one succeeded (see Next);
	// read-only here, nil for a first generation.
	prev *sync.Map
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
func NewPairMemo() *PairMemo { return &PairMemo{cur: new(sync.Map)} }

// Next returns the memo for an owner that moves on to mostly the same
// buckets (a standing push after a boundary granule widened): it
// starts empty, so keys the new generation never
// asks for are dropped with m, but still answers from m's own entries,
// so only keys whose box changed are solved again. Only one generation
// back is consulted or kept alive.
func (m *PairMemo) Next() *PairMemo {
	return &PairMemo{cur: new(sync.Map), prev: m.cur}
}

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
	if v, ok := m.cur.Load(k); ok {
		b := v.(memoBounds)
		return b.lb, b.ub, false
	}
	if m.prev != nil {
		if v, ok := m.prev.Load(k); ok {
			m.cur.Store(k, v)
			b := v.(memoBounds)
			return b.lb, b.ub, false
		}
	}
	lb, ub = PairBounds(pred, x, y)
	m.cur.Store(k, memoBounds{lb, ub})
	return lb, ub, true
}

// Len counts the entries of the current generation (the previous one,
// kept alive only to answer from, is not counted).
func (m *PairMemo) Len() int {
	n := 0
	m.cur.Range(func(_, _ any) bool { n++; return true })
	return n
}
