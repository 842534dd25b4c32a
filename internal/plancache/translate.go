package plancache

import (
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// sigmaFor composes two canonical labelings into the vertex
// correspondence between an entry's query and a requesting query with
// the same key: sigma[v] is the entry vertex playing the role of
// request vertex v (both map to the same canonical label). Returns nil
// for the identity correspondence — the common case of re-executing the
// very same query object, which must stay allocation-free.
func sigmaFor(entryLabeling, reqLabeling []int) []int {
	if len(entryLabeling) != len(reqLabeling) {
		return nil
	}
	inv := make([]int, len(entryLabeling)) // canonical label -> entry vertex
	for u, p := range entryLabeling {
		inv[p] = u
	}
	identity := true
	sigma := make([]int, len(reqLabeling))
	for v, p := range reqLabeling {
		sigma[v] = inv[p]
		if sigma[v] != v {
			identity = false
		}
	}
	if identity {
		return nil
	}
	return sigma
}

// translatePlan re-expresses a cached plan in the requesting query's
// vertex labeling: combination bucket tuples are permuted by sigma
// (with each bucket's vertex-scoped Col rewritten). Everything
// vertex-independent — bounds, counts, the kthResLB floor — carries
// over untouched, because the key guarantees the two queries agree on
// predicates, collections and granulations along sigma. A nil sigma
// returns the input unchanged (shared, still read-only).
func translatePlan(tb *topbuckets.Result, sigma []int) *topbuckets.Result {
	if sigma == nil {
		return tb
	}
	ntb := *tb
	ntb.Selected = make([]topbuckets.Combo, len(tb.Selected))
	for i, cb := range tb.Selected {
		nb := make([]stats.Bucket, len(cb.Buckets))
		for v := range nb {
			b := cb.Buckets[sigma[v]]
			b.Col = v
			nb[v] = b
		}
		cb.Buckets = nb
		ntb.Selected[i] = cb
	}
	return &ntb
}
