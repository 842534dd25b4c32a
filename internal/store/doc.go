// Package store is TKIJ's dataset-resident bucket store: the
// query-independent data layout the offline statistics phase (§3.2 of
// the paper) pays for once per dataset and every query reuses. It is
// the physical home of the paper's buckets b_{i,l,l'} — each
// collection's intervals partitioned by (start granule, end granule) —
// while internal/stats holds their counts (the matrices B_i planning
// works from).
//
// The seed pipeline re-shuffled every raw interval of every collection
// through the join Map-Reduce job on every execution and rebuilt
// per-bucket R-trees inside each reducer. The store moves both costs to
// dataset preparation: each collection's intervals are partitioned by
// bucket exactly once, and each bucket's R-tree is bulk-built lazily on
// first use and memoized — shared across queries and across concurrent
// reducers. The join phase moves no interval at all: reducers are
// handed bucket-combination indexes and read the buckets in place.
//
// # Epochs
//
// The store is epoch-versioned for streaming ingest (the paper's
// motivating workloads — network traffic, tweets — are append-heavy
// streams). Build seals epoch 0; each Append publishes a new epoch as a
// copy-on-write view: untouched buckets share their bucket struct (and
// memoized R-tree) with the previous epoch, while a touched bucket
// keeps its sealed prefix — and the sealed prefix's memoized tree —
// and gains a small delta tree over the appended suffix. Once a
// bucket's delta outgrows the compaction threshold the bucket is
// resealed, and the next probe pays one bulk rebuild for that bucket
// alone. Appends therefore never invalidate unaffected buckets'
// R-trees, and a query that pins a View at admission observes exactly
// one epoch no matter how many appends land while it runs.
//
// The epoch sequence is also the invalidation key of everything
// derived from the dataset: the engine stamps each query's Report with
// its pinned epoch, and the plan cache (internal/plancache) keys
// cached plans by it — valid while the epoch is unchanged, promoted
// across appends that change no bucket's shape, planned again across
// those that do. A store's epoch only grows: Append is the only way
// its data changes.
//
// All read paths are safe for concurrent use: epoch views are immutable
// once published, tree memoization is per-bucket sync.Once-guarded, and
// Append (serialized internally) only ever publishes fresh views.
package store
