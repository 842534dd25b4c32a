package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/mmapstore"
	"tkij/internal/obs"
	"tkij/internal/plancache"
	"tkij/internal/shard"
	"tkij/internal/snapshot"
	"tkij/internal/stats"
	"tkij/internal/store"
)

// Options configures an Engine. The zero value maps to the paper's
// defaults: g = 40 granules (§4.2.4's sweet spot) and k = 100. Every
// query is planned with the loose TopBuckets bounds the paper settles on
// (§4.2.3), as a lazy topbuckets.Plan: a local query joins it in one
// pass and builds only the combinations it reads; only a sharded engine
// drains it and splits it over reducers, with DTB.
type Options struct {
	// Granules is g, the number of granules per collection.
	Granules int
	// K is the number of results to return.
	K int
	// Reducers is the number of reducers r a sharded engine's DTB
	// assignment splits each query over (0: one per shard worker). It
	// shapes only the shard scatter: a local query is one reducer.
	Reducers int
	// PlanCache tunes the query-plan cache (the zero value enables it
	// with default bounds; set PlanCache.Disabled to plan every query
	// cold). Repeated query shapes hit the cache and skip TopBuckets
	// entirely; an epoch bump from
	// Append promotes a cached plan unless it changed a bucket's shape.
	PlanCache plancache.Options
	// Mmap selects the zero-copy restore path in OpenEngine: the
	// snapshot file is mapped read-only and its sealed buckets are
	// served straight from the mapping — no interval is decoded into the
	// heap, only the lazily built R-trees live there, and the first query
	// runs with no store materialization. The O(dataset) content
	// verification (checksum, per-record checks) runs in the background;
	// a damaged file fails the first query admission after discovery
	// instead of the open. Ignored by NewEngine (a cold build has no
	// file to map).
	Mmap bool
	// Shards > 1 runs the join phase across that many shard workers: the
	// resident bucket partition is split over the workers by the shard
	// manifest, each query's DTB assignment over Reducers reducers
	// scatters to the shards over the wire protocol, and the
	// cross-reducer score floor is broadcast so remote reducers
	// early-terminate like a local pass. 0 or 1 keeps the
	// single-process local runner. With ShardAddrs empty the workers run
	// in-process (net.Pipe transport, full wire protocol).
	Shards int
	// ShardAddrs connects to external tkij-worker processes over TCP
	// instead of in-process workers; its length overrides Shards.
	ShardAddrs []string
	// ShardNoFloorBroadcast keeps each worker's score floor local — the
	// floor-broadcast ablation. Results are identical (the floor is a
	// certified lower bound either way); remote reducers just prune
	// less.
	ShardNoFloorBroadcast bool
	// Tracer, when set, collects a span tree per query/append/push cycle
	// for JSONL or Chrome trace-event export (tkijrun -trace-out). Nil
	// keeps tracing fully detached: span calls collapse to nil-receiver
	// no-ops and the execute path performs zero tracing allocations.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Granules <= 0 {
		o.Granules = 40
	}
	if o.K <= 0 {
		o.K = 100
	}
	return o
}

// Engine evaluates RTJ queries over a fixed set of collections. It is
// safe for concurrent use: the offline preparation is single-flighted,
// and Execute may be called from any number of goroutines once (or
// while) it completes.
type Engine struct {
	opts  Options
	cols  []*interval.Collection
	plans *plancache.Cache

	// mu single-flights the offline preparation and guards the fields
	// below until it completes.
	mu       sync.Mutex
	matrices []*stats.Matrix
	store    *store.Store
	restored bool
	// mapped is the snapshot mapping backing a zero-copy restored store
	// (Options.Mmap); nil for heap-built and heap-restored engines. Its
	// background verification outcome gates query admission in prepared.
	mapped *mmapstore.Reader

	// cluster is the shard coordinator when Options.Shards > 1, created
	// lazily with the store and replica-loaded from it. shardWorkers
	// holds the in-process workers (nil for a TCP cluster) — test
	// introspection and nothing else.
	cluster      *shard.Cluster
	shardWorkers []*shard.Worker
	// shardGate serializes Append against in-flight pins when a cluster
	// is active: a Pin holds the read side until Release, Append takes
	// the write side while forwarding the batch to the worker replicas.
	// This keeps every scattered query's epoch equal to the worker
	// replica epoch — the coordinator cannot grow the replicas while a
	// pinned query might still scatter against the old epoch.
	shardGate sync.RWMutex

	// ingestHook, when set, is invoked after Append publishes a new
	// store epoch, outside the engine lock, so the hook may pin and
	// execute. It must return quickly and never block (the standing
	// manager's hook is a non-blocking channel nudge); Append latency
	// includes it.
	ingestHook func()

	// StatsMetrics describes the statistics-collection job after
	// PrepareStats (or the first Execute) has run. Like StatsDuration
	// and StoreBuildDuration, read it only after PrepareStats returns.
	// An engine restored from a snapshot (OpenEngine) never runs the
	// statistics job, so its StatsMetrics stays nil. Each engine runs
	// the job at most once; Append maintains the counts after that.
	StatsMetrics *mapreduce.Metrics
	// StatsDuration is the offline pre-processing wall time: statistics
	// job + bucket-store build, paid once per engine. For a restored
	// engine it is the snapshot restore time — the cost that replaced
	// the offline phase.
	StatsDuration time.Duration
	// StoreBuildDuration is the share of StatsDuration spent
	// partitioning intervals into the resident bucket store (zero for a
	// restored engine, whose partition came from the snapshot).
	StoreBuildDuration time.Duration
}

// NewEngine validates the collections and returns an engine. Statistics
// and the bucket store are built lazily on first use (or eagerly via
// PrepareStats).
func NewEngine(cols []*interval.Collection, opts Options) (*Engine, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: no collections")
	}
	for i, c := range cols {
		if c == nil || c.Len() == 0 {
			return nil, fmt.Errorf("core: collection %d is empty", i)
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	opts = opts.withDefaults()
	return &Engine{opts: opts, cols: cols, plans: plancache.New(opts.PlanCache)}, nil
}

// OpenEngine restores a warm engine from a snapshot previously written
// by SaveSnapshot: the bucket matrices and the resident bucket
// partition are loaded from the file, so the engine's first Execute
// runs zero statistics work — no statistics job, no shuffle, no
// partitioning; R-trees are still memoized lazily on demand. cols must
// be the same dataset the snapshot was built from (same collection
// count, sizes and contents — the cheap invariants are verified here,
// content identity is the caller's contract, as the point of a snapshot
// is not re-reading the data to prove it). The snapshot's granulation
// wins over opts.Granules; it is what the persisted partition was built
// under.
func OpenEngine(cols []*interval.Collection, snapshotPath string, opts Options) (*Engine, error) {
	e, err := NewEngine(cols, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		st *store.Store
		ms []*stats.Matrix
	)
	if opts.Mmap {
		st, ms, err = e.openMapped(snapshotPath)
	} else {
		st, ms, err = snapshot.Load(snapshotPath)
	}
	if err != nil {
		return nil, err
	}
	if err := adoptChecks(cols, snapshotPath, ms); err != nil {
		if opts.Mmap {
			st.Close() // drop the store's mapping reference
			e.mapped = nil
		}
		return nil, err
	}
	e.matrices = ms
	e.store = st
	e.restored = true
	// The snapshot's granulation is what the persisted partition was
	// built under; reflect it in the engine's options so Options()
	// reports the g actually in effect, not a conflicting flag value.
	e.opts.Granules = ms[0].Gran.G
	e.StatsDuration = time.Since(start)
	return e, nil
}

// adoptChecks verifies a restored (matrices, store) pair against the
// live collections and widens the matrix extents from them — the cheap
// dataset-identity invariants shared by both restore paths.
func adoptChecks(cols []*interval.Collection, snapshotPath string, ms []*stats.Matrix) error {
	if len(ms) != len(cols) {
		return fmt.Errorf("core: snapshot %s holds %d collections, engine has %d", snapshotPath, len(ms), len(cols))
	}
	for i, m := range ms {
		if m.Total() != cols[i].Len() {
			return fmt.Errorf("core: snapshot %s collection %d has %d intervals, dataset has %d — snapshot is for a different dataset",
				snapshotPath, i, m.Total(), cols[i].Len())
		}
		// The snapshot does not persist endpoint extents; re-derive them
		// from the live collections so bounds over the boundary granules
		// stay sound when the snapshot holds clamped (out-of-range)
		// appends.
		cs := cols[i].ComputeStats()
		m.Widen(cs.MinStart, cs.MaxEnd)
	}
	return nil
}

// openMapped is the zero-copy restore: the snapshot is mapped
// read-only and structurally validated (O(buckets), not O(intervals)),
// the store is assembled over the mapping with its delta sections
// replayed (mmapstore.Reader.Store), and the O(dataset) content
// verification is left running in the background — prepareLocked
// surfaces its failure at the next query admission.
func (e *Engine) openMapped(path string) (*store.Store, []*stats.Matrix, error) {
	rd, err := mmapstore.Open(path)
	if err != nil {
		return nil, nil, err
	}
	// Drop the opener reference on every path: once assembled, the store
	// (plus any pinned views and the background verifier) carries the
	// mapping.
	defer rd.Close()
	st, ms, err := rd.Store()
	if err != nil {
		return nil, nil, fmt.Errorf("%w (file %s)", err, path)
	}
	rd.VerifyAsync()
	e.mapped = rd
	return st, ms, nil
}

// SaveSnapshot persists the offline phase (matrices + bucket
// partition) to path as one versioned, checksummed snapshot file,
// preparing the engine first if needed. OpenEngine restores it. Any
// bucket deltas accumulated by Append are folded into the image (the
// restored store starts fully sealed at epoch 0); the encode runs under
// the engine lock so a concurrent Append cannot tear the image, and
// snapshot.AppendDelta can extend the file later without rewriting it.
func (e *Engine) SaveSnapshot(path string) error {
	if err := e.PrepareStats(); err != nil {
		return err
	}
	e.mu.Lock()
	img, err := snapshot.Encode(e.store, e.matrices)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return snapshot.WriteImage(path, img)
}

// Close releases the engine's resources beyond the GC's reach — today
// that is the snapshot mapping behind a zero-copy restore
// (OpenEngine with Options.Mmap). The mapping is actually unmapped
// only once in-flight pinned views release too. Heap-built and
// heap-restored engines have nothing to release; Close is a no-op for
// them, and idempotent everywhere. Pins taken before Close stay valid
// until released; pinning or executing anew after Close is a
// programming error on a mapped engine (the store's bucket memory may
// be gone).
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store != nil {
		e.store.Close()
	}
	e.mapped = nil
	e.closeClusterLocked()
}

// Mapped reports whether this engine serves sealed buckets straight
// from a snapshot mapping (a zero-copy OpenEngine restore).
func (e *Engine) Mapped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mapped != nil
}

// Restored reports whether this engine was opened from a snapshot
// (OpenEngine) rather than built by running the offline phase.
func (e *Engine) Restored() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restored
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Collections returns the engine's collections.
func (e *Engine) Collections() []*interval.Collection { return e.cols }

// PrepareStats runs the offline, query-independent phase: the
// statistics-collection job (§3.2) plus the bucket-store build that
// makes every interval dataset-resident. It is idempotent and
// single-flighted — concurrent callers block until the one build
// finishes; Execute calls it automatically when needed.
func (e *Engine) PrepareStats() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prepareLocked()
}

func (e *Engine) prepareLocked() error {
	if e.store != nil {
		if e.mapped != nil {
			// A zero-copy restore defers the O(dataset) content checks to
			// a background verifier; once it finds damage, every admission
			// for the engine's lifetime refuses rather than serving
			// corrupt buckets.
			if err := e.mapped.Err(); err != nil {
				return fmt.Errorf("core: mapped snapshot failed verification: %w", err)
			}
		}
		return e.startClusterLocked()
	}
	start := time.Now()
	ms, metrics, err := stats.Collect(e.cols, e.opts.Granules, mapreduce.Config{Reducers: len(e.cols)})
	if err != nil {
		return err
	}
	buildStart := time.Now()
	st, err := store.Build(e.cols, ms)
	if err != nil {
		return err
	}
	e.matrices, e.store, e.StatsMetrics = ms, st, metrics
	e.StoreBuildDuration = time.Since(buildStart)
	e.StatsDuration = time.Since(start)
	return e.startClusterLocked()
}

// startClusterLocked brings up the shard cluster (once) when the
// options ask for distributed execution: in-process workers by default,
// TCP workers when ShardAddrs names them, replica-loaded from the
// store's current epoch. Callers hold e.mu. A cluster that faulted
// (worker lost, protocol violation) stays poisoned for the engine's
// lifetime: every execution fails fast with the original cause.
// Recovery is a new engine (for example an OpenEngine restore).
func (e *Engine) startClusterLocked() error {
	if e.cluster != nil || (e.opts.Shards <= 1 && len(e.opts.ShardAddrs) == 0) {
		return nil
	}
	copts := shard.ClusterOptions{NoFloorBroadcast: e.opts.ShardNoFloorBroadcast}
	if len(e.opts.ShardAddrs) > 0 {
		//tkij:ignore ctxflow -- the cluster is engine-scoped, not request-scoped: dialing happens inside ctx-less preparation (Pin) and the connections outlive whichever query triggered them, so no caller context exists to derive from
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c, err := shard.Dial(ctx, e.opts.ShardAddrs, copts)
		if err != nil {
			return err
		}
		e.cluster = c
	} else {
		c, workers, err := shard.InProcess(e.opts.Shards, copts)
		if err != nil {
			return err
		}
		e.cluster = c
		e.shardWorkers = workers
	}
	if err := e.cluster.LoadStore(e.store); err != nil {
		e.cluster.Close()
		e.cluster, e.shardWorkers = nil, nil
		return err
	}
	return nil
}

// closeClusterLocked tears the shard cluster down (idempotent).
func (e *Engine) closeClusterLocked() {
	if e.cluster != nil {
		e.cluster.Close()
	}
	e.cluster, e.shardWorkers = nil, nil
}

// ShardWorkers exposes the in-process shard workers for test
// introspection (replica epochs, pin accounting); nil before the
// cluster starts or when the cluster is TCP-backed.
func (e *Engine) ShardWorkers() []*shard.Worker {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shardWorkers
}

// PlanCacheStats returns a snapshot of the engine's plan-cache
// activity: hits, promotions (Revalidations), misses, evictions, and
// the retained solver-work cost.
func (e *Engine) PlanCacheStats() plancache.Stats {
	return e.plans.Stats()
}

// Tracer returns the engine's attached span tracer (nil when tracing
// is detached).
func (e *Engine) Tracer() *obs.Tracer {
	return e.opts.Tracer
}

// StoreViewStats snapshots the bucket store's live-view accounting
// (zero value before preparation).
func (e *Engine) StoreViewStats() store.ViewStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return store.ViewStats{}
	}
	return e.store.ViewStats()
}

// StoreStats snapshots the bucket store's structural counters (zero
// value before preparation).
func (e *Engine) StoreStats() store.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return store.Stats{}
	}
	return e.store.Snapshot()
}

// Health reports whether the engine can currently admit queries: nil
// when healthy, otherwise the condition poisoning admission — a mapped
// snapshot whose background verification found damage, or a faulted
// shard cluster. Either refusal lasts for the engine's lifetime; the
// remedy is a new engine (for example an OpenEngine restore from a
// sound snapshot). obs.Serve's /healthz endpoint surfaces it.
func (e *Engine) Health() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mapped != nil {
		if err := e.mapped.Err(); err != nil {
			return fmt.Errorf("mapped snapshot failed verification: %w", err)
		}
	}
	if e.cluster != nil {
		if err := e.cluster.Health(); err != nil {
			return fmt.Errorf("shard cluster faulted: %w", err)
		}
	}
	return nil
}

// Store exposes the dataset-resident bucket store (after PrepareStats).
func (e *Engine) Store() *store.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store
}
