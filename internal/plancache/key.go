package plancache

import (
	"fmt"
	"sort"
	"strings"

	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// maxCanonVertices caps the exhaustive canonical labeling: up to this
// arity every vertex permutation is tried (n! candidates — trivial for
// the paper's 2–4-way joins), beyond it the identity labeling is used,
// which still caches correctly but only matches literally identical
// shapes. RTJ queries are small graphs; the cap exists so a pathological
// query cannot turn key computation into the expensive phase the cache
// is meant to avoid.
const maxCanonVertices = 6

// Key returns the canonical plan key of a query execution: a string
// identifying the planning problem — and nothing else. Two executions
// share a key iff TopBuckets would do isomorphic work for them at the same matrices epoch:
//
//   - the query shapes are isomorphic: some vertex relabeling maps one
//     query's edges (with their scored predicates, directions, and —
//     for order-sensitive aggregators — per-edge weights) onto the
//     other's, with the collection mapping permuted along;
//   - k matches;
//   - every vertex reads the same collection under the same
//     granulation signature (G, Min, Max).
//
// The matrices epoch is deliberately *not* part of the key: an epoch
// bump must find the existing entry so it can be promoted when no
// bucket changed shape. Entries carry their epoch separately (see
// Cache).
//
// vertexCols[v] is the collection index vertex v reads (the engine's
// execution mapping); grans[v] is that collection's granulation.
func Key(q *query.Query, vertexCols []int, k int, grans []stats.Granulation) string {
	key, _ := Canonicalize(q, vertexCols, k, grans)
	return key
}

// Canonicalize is Key additionally returning the canonical labeling:
// labeling[v] is the canonical label of query vertex v under the
// permutation that realized the key. Two isomorphic executions with
// labelings p and p' correspond vertex-wise through p'^-1∘p — the
// cache uses that to translate a cached plan (whose bucket tuples are
// vertex-indexed) into the requesting query's
// labeling before serving it.
func Canonicalize(q *query.Query, vertexCols []int, k int, grans []stats.Granulation) (string, []int) {
	n := q.NumVertices
	// Per-edge signatures are permutation-independent; precompute once.
	edgeSigs := make([]string, len(q.Edges))
	weights := edgeWeights(q)
	for i, e := range q.Edges {
		edgeSigs[i] = predicateSig(e.Pred, weights, i)
	}

	render := func(pi []int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "k=%d;agg=%s", k, q.Agg.Name())
		// Vertex section in canonical-label order: collection identity
		// plus granulation signature.
		vparts := make([]string, n)
		for v := 0; v < n; v++ {
			vparts[pi[v]] = fmt.Sprintf("c%d:g%d:%d:%d", vertexCols[v], grans[v].G, grans[v].Min, grans[v].Max)
		}
		for p, vp := range vparts {
			fmt.Fprintf(&b, ";v%d=%s", p, vp)
		}
		// Edge section sorted, so listing order never matters.
		eparts := make([]string, len(q.Edges))
		for i, e := range q.Edges {
			eparts[i] = fmt.Sprintf("%d>%d:%s", pi[e.From], pi[e.To], edgeSigs[i])
		}
		sort.Strings(eparts)
		b.WriteString(";E=")
		b.WriteString(strings.Join(eparts, "&"))
		return b.String()
	}

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	best := render(identity)
	bestPi := append([]int(nil), identity...)
	if n > maxCanonVertices {
		return best, bestPi
	}
	permute(identity, func(pi []int) {
		if s := render(pi); s < best {
			best = s
			copy(bestPi, pi)
		}
	})
	return best, bestPi
}

// edgeWeights returns the per-edge weights when the aggregator is
// order-sensitive (WeightedSum — reordering edges without moving their
// weights changes the score), nil otherwise. Attaching the weight to
// the edge signature makes the sorted edge section safe: a weighted
// query is determined by its multiset of (edge, weight) pairs.
func edgeWeights(q *query.Query) []float64 {
	if ws, ok := q.Agg.(*scoring.WeightedSum); ok {
		return ws.Weights
	}
	return nil
}

// predicateSig serializes a scored predicate (scoring.Predicate's
// Signature — the comparator kinds, difference expressions and (λ, ρ)
// tolerances) and, for weighted aggregators, the edge's weight. Two
// predicates with equal signatures score every interval pair
// identically, regardless of the Name they were built under.
func predicateSig(p *scoring.Predicate, weights []float64, edge int) string {
	if weights != nil && edge < len(weights) {
		return fmt.Sprintf("w%g~%s", weights[edge], p.Signature())
	}
	return p.Signature()
}

// permute invokes fn with every permutation of p (Heap's algorithm,
// in-place; fn must not retain p).
func permute(p []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(len(p))
}
