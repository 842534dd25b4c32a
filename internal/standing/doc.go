// Package standing serves continuous top-k subscriptions over the
// engine's streaming ingest: a subscription registers a query shape
// once (canonical plan key, current top-k snapshot, certified k-th
// score floor, bucket-count fingerprint) and thereafter receives
// incremental Deltas pushed after every append, instead of re-executing
// the query per epoch.
//
// The push path exploits the append-only epoch model. After an append,
// only bucket combinations containing a grown bucket can hold new
// result tuples; existing tuples never change score, so the fresh top-k
// is a subset of (old snapshot ∪ probe of the grown combinations).
// Each push cycle pins the engine once, diffs every subscription's
// bucket-count fingerprint (plancache.EpochState) against the pinned
// matrices and takes the cheapest sound route:
//
//   - promote — nothing grew in the subscription's matrices: the
//     snapshot carries over verbatim, the delta just advances Epoch.
//   - incremental probe — enumerate the grown combinations
//     (topbuckets.AffectedCombos), bound them (topbuckets.LooseBounds
//     over the subscription's solver.PairMemo, then
//     topbuckets.TightenBounds), prune those whose score upper bound
//     falls strictly below the snapshot's exact k-th score, probe the
//     survivors through core.Engine.ProbePinned (the same join runner a
//     fresh execution uses — local or sharded, with floor broadcast —
//     reading the same memo, so it solves no bound again), merge, and
//     push the membership difference.
//   - resync — the diff base is void (store rebuild, granulation swap)
//     or the grown region exceeds MaxAffected: re-execute
//     fresh and push the full state.
//
// The invariant gating all of it: a consumer materializing deltas
// through TopK.Apply holds, after every delta, byte-identically the
// result list a fresh Execute at that delta's epoch returns. The
// equivalence harness in this package enforces it against both the
// pipeline and the naive baseline.
//
// Subscribers never block ingest: the ingest hook is a non-blocking
// nudge to the dispatcher, and each subscription's delta queue is
// bounded — when a consumer lags, pending increments coalesce into a
// single resync (Delta.Resync) that re-bases it wholesale.
package standing
