// Package distribute implements TKIJ's workload-assignment phase (§3.4
// of the paper): mapping the selected bucket combinations Ω_k,S onto
// reducers.
//
// The primary algorithm is DistributeTopBuckets (DTB, Algorithms 3 and
// 4), which hands out combinations in descending score-upper-bound
// order so every reducer receives a fair share of high-scoring results
// (enabling early termination of local top-k processing), discards
// reducers that already hold twice the average result load (worst-case
// balance), and breaks ties toward the reducer already holding the
// largest share of the combination's buckets (replication /
// shuffle-input cost — the I/O DTB minimizes, surfaced as
// Assignment.ReplicatedRecords).
//
// The package also provides the two comparison assignments used in the
// evaluation: LPT (§4.2.2), the longest-processing-time scheduling
// heuristic that ignores scores, and a plain round-robin ablation.
//
// Assignments are made only where reducers are separate: a sharded
// engine's coordinator (internal/shard) assigns each query's Ω_k,S over
// its reducers and places them on shard workers (Place), and the figure
// drivers (internal/experiments) simulate the paper's r reducers in one
// process. A local query is one reducer and assigns nothing. Tasks are
// an assignment's join tasks, RunReducers (a join.Runner) runs them side
// by side in one process, and Gather is a runner's accounting of them:
// idle reducers' entries and each reducer's routed bucket references.
//
// An Assignment is immutable once returned. It references combinations
// by index into the Ω_k,S slice it was built from and buckets by their
// vertex-scoped BucketKey, so it stays valid as long as that slice's
// order and bucket identities do.
package distribute
