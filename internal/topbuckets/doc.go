// Package topbuckets implements TKIJ's online pruning phase (§3.3 of
// the paper): it enumerates bucket combinations, computes their score
// bounds with the solver, and selects the Top Buckets set Ω_k,S — a
// subset of the search space guaranteed to contain the exact top-k
// results (Definition 2).
//
// Paper concepts:
//
//   - A Combo is one bucket combination ω = (b_1, ..., b_n), one bucket
//     per query vertex, carrying its score bounds [LB, UB]
//     (Definition 1) and candidate-result count ω.nbRes.
//   - Selection (Algorithm 1, getTopBuckets) computes kthResLB — the
//     certified lower bound on the k-th result's score — and keeps
//     every combination whose UB clears it; see select.go for the
//     streaming, tie-robust formulation.
//   - The three bound strategies of Algorithm 2 are provided:
//     brute-force (tight solver bounds on every combination), loose
//     (per-edge pair bounds aggregated through the monotone scoring
//     function — the paper's choice, §4.2.3) and two-phase (loose
//     pruning, then tight refinement of the survivors).
//
// The bounds attached to a Result are a *certificate*, not just a
// heuristic: every pruned combination has UB <= KthResLB while the
// selected set carries at least k results with LB >= KthResLB. That is
// what lets the join phase use KthResLB as a score floor, and the plan
// cache (internal/plancache) promote a plan unchanged across an
// append-only epoch bump that moved no granule box. A standing push
// (internal/standing) looks again only at the combinations an epoch
// grew: AffectedCombos walks exactly that region of Ω, and LooseBounds
// (memoized pair bounds, see solver.PairMemo) and TightenBounds (the
// tight solver, in parallel) bound it.
//
// Every pair bound — the loose strategy's dense tables here, the
// standing layer's LooseBounds, the join's per-edge bounds — is solved
// by solver.PairBounds over boxes derived by BoxOf, so the three agree
// to the bit.
package topbuckets
