// Package standing serves continuous top-k subscriptions over the
// engine's streaming ingest: a subscription registers a query shape
// once (canonical plan key, current top-k snapshot, bucket-count
// fingerprint) and thereafter receives Deltas pushed after every
// append, instead of the client re-executing the query per epoch.
//
// Each push cycle pins the engine once, diffs every subscription's
// bucket-count fingerprint (plancache.EpochState) against the pinned
// matrices and takes one of two routes:
//
//   - promote — nothing grew in the subscription's matrices: the
//     snapshot carries over verbatim, the delta just advances Epoch.
//   - push — something grew: one core.Engine.ExecutePinned at the
//     cycle's pin, through the plan cache (an append that moved no
//     bucket's box promotes the cached plan with its bounds, so the
//     execution plans and solves nothing), committed as the membership
//     difference between the pushed top-k and the fresh one.
//
// An engine's data changes only through Append and its epoch never goes
// back, so a subscription's diff base is never void: the only resync
// deltas are the initial snapshot and slow-subscriber coalescing.
//
// The invariant: a consumer materializing deltas through TopK.Apply
// holds, after every delta, byte for byte the result list a fresh
// ExecutePinned at that delta's epoch returns. The equivalence harness
// in this package enforces it, and checks the scores against the naive
// baseline.
//
// Subscribers never block ingest: the ingest hook is a non-blocking
// nudge to the dispatcher, and each subscription's delta queue is
// bounded — when a consumer lags, pending increments coalesce into a
// single resync (Delta.Resync) that re-bases it wholesale.
package standing
