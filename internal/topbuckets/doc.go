// Package topbuckets implements TKIJ's online pruning phase (§3.3 of
// the paper): it bounds bucket combinations with the solver and
// selects the Top Buckets set Ω_k,S — a
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
//     tie-robust formulation.
//   - A Plan is the loose strategy's Ω_k,S as a stream (plan.go): the
//     engine's one way to plan a query. It builds Ω_k,S best-first in
//     the join's access order, only as far as a reader asks, and
//     drained it equals SelectWithThreshold over all of Ω bounded by
//     LooseBounds.
//   - The three bound strategies of Algorithm 2 are provided through
//     Run, for the figure drivers: loose (per-edge pair bounds
//     aggregated through the monotone scoring function — the paper's
//     choice, §4.2.3; a Plan drained), two-phase (the loose selection's
//     bounds tightened, then selected again) and brute-force (tight
//     solver bounds on every combination).
//
// The bounds attached to a plan are a *certificate*, not just a
// heuristic: every pruned combination has UB <= KthResLB while the
// selected set carries at least k results with LB >= KthResLB. That is
// what lets the join phase use KthResLB as a score floor, and the plan
// cache (internal/plancache) promote a plan unchanged across an
// append-only epoch bump that moved no granule box — which is also how a
// standing push (internal/standing), one execution per epoch, reuses
// its plan.
//
// Every pair bound — a plan's dense tables here, LooseBounds (the
// reference a plan is tested against), the join's per-edge bounds — is
// solver.PairBounds over boxes derived by BoxOf (a plan takes the
// enclosure's part of it, solver.PairEnclosure, where that is exact), so
// the three agree to the bit.
package topbuckets
