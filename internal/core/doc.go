// Package core assembles the TKIJ pipeline (Figure 5 of the paper):
// offline statistics collection (§3.2), TopBuckets selection of Ω_k,S
// (§3.3), and the join + merge phases — and wraps them in an Engine
// built for multi-query serving rather than one-shot batch evaluation.
//
// Paper concepts and where they live:
//
//   - Granules and bucket matrices (§3.2) — internal/stats, built or
//     incrementally maintained by the Engine, persisted by
//     internal/snapshot.
//   - The dataset-resident bucket partition — internal/store, the
//     epoch-versioned home of every interval and memoized R-tree.
//   - Ω_k,S and its pruning certificate (Definitions 1–2, Algorithms
//     1–2) — internal/topbuckets, reached through the plan cache.
//   - The join and merge phases (Figure 5c–e) — internal/join. A local
//     query is one reducer: a serial pass over Ω_k,S by descending UB
//     in the calling goroutine, which stops when the next combination's
//     UB cannot beat the k-th result, plus the merge.
//   - DistributeTopBuckets / DTB (Algorithms 3–4) — internal/distribute,
//     used only where reducers are separate: a sharded engine's
//     coordinator (internal/shard) assigns each query's Ω_k,S over
//     Options.Reducers reducers and scatters them to shard workers, and
//     the figure drivers (internal/experiments) simulate the paper's r
//     reducers. internal/mapreduce is the paper-baseline substrate
//     only; on the Engine it runs just the offline statistics job.
//
// The Engine is dataset-scoped: statistics and the bucket store are
// prepared once per dataset (the paper's query-independent
// pre-processing, whose cost is reported separately and excluded from
// query evaluation time, as in §4 "Statistics collection") and shared
// by every subsequent query. Execute may be called concurrently from
// any number of goroutines; the offline preparation is single-flighted,
// and each query pins one store epoch at admission so streaming Appends
// never stall or tear an in-flight query.
//
// Query time splits into a planning half and an execution half. The
// planning half (TopBuckets) is a pure function of the query shape, k,
// the granulation and the matrices epoch, so Execute routes it through
// an internal plan cache (internal/plancache): repeated query shapes
// skip it on a hit, and an epoch bump
// from Append promotes a cached plan unchanged unless it created a
// bucket or widened a boundary granule, which plans it again.
// Report.PlanCacheHit / Report.PlanRevalidated say how a given
// execution was planned; Options.PlanCache tunes or disables the cache.
package core
