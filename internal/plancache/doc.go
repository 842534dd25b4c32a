// Package plancache memoizes TKIJ's query-planning phase for repeated
// query shapes.
//
// In the paper's pipeline (Figure 5), everything that runs at query
// time before the join — solving per-combination score bounds and
// pruning the combination space to the Top Buckets set Ω_k,S
// (Algorithm 1/2) — is a pure function of the query *shape* (graph
// structure and predicates), k, the granulation, and the bucket
// matrices. It never reads the stored intervals themselves. Serving
// workloads repeat shapes constantly (the same dashboard query, the
// same alert rule), so the cache keys a plan — a topbuckets.Plan, Ω_k,S
// as a lazy stream with its bound certificates (LB/UB and the per-edge
// UBs the join prunes with per combination, the certified kthResLB
// floor) — by a canonical plan key and the matrices epoch, and Execute reuses it for
// the cost of a map lookup. An entry's plan keeps the combinations any
// query has read, so a hit reads them without building anything. A
// local query joins the plan in one pass, so a plan holds no reducer
// assignment; a sharded engine's coordinator drains and assigns it per
// query (internal/shard).
//
// Canonical key. Key normalizes the query shape up to node relabeling
// and edge reordering: two queries that differ only by a vertex
// permutation (with the collection mapping permuted along) and the
// order edges are listed in produce the same key. A hit is served in
// the requesting query's own labeling: bucket tuples are permuted by
// the vertex correspondence and edge UBs by the edge correspondence,
// each edge ranked by (canonical From, canonical To, signature) — the
// order of the key's edge section. Listing order alone makes the edge
// correspondence differ from the identity, even where the vertex one is
// the identity. k, the granulation
// signature, and the per-vertex collection identities are part of the
// key, so plans never alias across different result sizes, grids, or
// datasets.
//
// Epoch invalidation and promotion. The store's append-only epochs
// (internal/store) give invalidation for free: a cached plan is exact
// while the epoch is unchanged. On an epoch bump the entry's matrices
// fingerprint (EpochState) is diffed against the current matrices, and
// the plan crosses the bump in one of two ways:
//
//   - Promoted as-is, when no bucket changed shape: appends only grew
//     counts inside existing buckets, so every granule box — hence
//     every cached bound — is unchanged, and grown counts only add
//     results at or above the certified floor. The outcome is
//     Revalidated, and the plan keeps every bound it holds.
//   - Planned again, when a bucket appeared or an out-of-range append
//     widened a boundary granule (stats.Grid): the outcome is a Miss,
//     and the fresh entry, bounded over the widened boxes, replaces the
//     stale one.
//
// Retention is bounded by cost, not entry count: an entry's cost is
// its plan's pair-table cells plus, for every combination its readers
// have built so far, the combination and its per-edge UBs. A plan's built prefix grows as queries read further
// into it, so the cache recharges an entry on every hit, and
// least-recently-used entries are evicted once the total exceeds
// Options.MaxCost — so one giant plan cannot silently pin hundreds of
// megabytes while a thousand trivial plans thrash.
//
// Single flight. One call plans a given (canonical key, epoch) at a
// time: concurrent callers that miss or find the entry behind their
// epoch wait for that call, then look the key up again and read its
// result as a hit — translated, like any hit, into their own labeling.
// N concurrent first queries of one shape pay for one plan,
// whether they come through a server, direct Execute calls or standing
// resyncs. A failed planning hands its error to its waiters and caches
// nothing, so the next call plans afresh.
//
// The cache is safe for concurrent use. A cached plan only grows: its
// readers build its combinations in one order, shared with every later
// reader, and promotion and re-planning build fresh entries.
package plancache
