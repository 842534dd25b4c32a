package join

import (
	"sync"

	"tkij/internal/scoring"
	"tkij/internal/solver"
)

// BoundMemo memoizes per-edge combination bounds: the upper bound of one
// edge's predicate score over the granule boxes of its two buckets, which
// prepareCombo needs for every edge of every combination it processes.
// The key is the solver's complete input (see edgeBoundKey), so equal
// keys imply equal bounds whoever asks: one memo is sound across
// reducers, probe rounds, queries, epochs and isomorphic labelings of a
// shape, and nothing ever invalidates an entry — a boundary granule
// widened by an out-of-range append is simply a different key.
//
// The plan cache keeps one memo per cached plan (plancache.Planned
// hands it to the join through ReduceRequest.Bounds), which makes the
// solves a per-plan cost instead of a per-query one and bounds the
// memo's size by the plan's selected bucket pairs. Safe for concurrent
// use; a hit does no shared write.
type BoundMemo struct {
	cur *sync.Map // edgeBoundKey -> float64
	// prev is the map of the memo this one succeeded (see Next);
	// read-only here, nil for a first generation.
	prev *sync.Map
}

// NewBoundMemo returns an empty memo.
func NewBoundMemo() *BoundMemo { return &BoundMemo{cur: new(sync.Map)} }

// Next returns the memo for a plan that replaces bm's plan over mostly
// the same buckets (a revalidation that re-selected): it starts empty,
// so keys the new plan never asks for are dropped with bm, but still
// answers from bm's own entries, so only keys whose box changed are
// solved again. Only one generation back is consulted or kept alive.
func (bm *BoundMemo) Next() *BoundMemo {
	return &BoundMemo{cur: new(sync.Map), prev: bm.cur}
}

// edgeBoundKey is the complete input of one per-edge bound computation:
// the predicate's scoring signature and the two vertex boxes (from-side
// start/end granule bounds, then to-side). Equal keys imply equal
// bounds, which is what makes the memo sound across queries.
type edgeBoundKey struct {
	sig string
	box [8]float64
}

// edgeUB returns the bound for k, whose sig must be pred's signature.
// solved reports that the solver ran — the caller counts solves and
// reuses per reducer, so a lookup touches no shared counter. Concurrent
// first requests may both solve (the solve is deterministic, so either
// result is the result).
func (bm *BoundMemo) edgeUB(pred *scoring.Predicate, k edgeBoundKey) (ub float64, solved bool) {
	if v, ok := bm.cur.Load(k); ok {
		return v.(float64), false
	}
	if bm.prev != nil {
		if v, ok := bm.prev.Load(k); ok {
			bm.cur.Store(k, v)
			return v.(float64), false
		}
	}
	from := solver.VertexBox{StartLo: k.box[0], StartHi: k.box[1], EndLo: k.box[2], EndHi: k.box[3]}
	to := solver.VertexBox{StartLo: k.box[4], StartHi: k.box[5], EndLo: k.box[6], EndHi: k.box[7]}
	_, ub = solver.PredicateBounds(pred, from, to, solver.Options{MaxNodes: 64, Eps: 0.01})
	bm.cur.Store(k, ub)
	return ub, true
}
