package store

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"tkij/internal/interval"
	"tkij/internal/rtree"
	"tkij/internal/stats"
)

// DefaultCompactLimit is the delta size at which a bucket is resealed
// (see setCompactLimit): a bucket also compacts whenever its delta
// grows past its sealed prefix, so small fresh buckets reseal cheaply
// while large established buckets amortize one rebuild per
// DefaultCompactLimit appended intervals.
const DefaultCompactLimit = 128

// gkey identifies a bucket within one collection: the (start granule,
// end granule) pair. Collection identity is carried by the ColStore, so
// vertex-scoped stats.BucketKey Col rewrites (Matrix.WithCol) never
// touch the store.
type gkey struct {
	startG, endG int
}

// Bucket is one bucket of one collection as resolved at one epoch: its
// intervals and an index probe over exactly those intervals. It is the
// handle the join resolves once per combination (join.Bucket is the
// same type) so that its per-tuple probes do no lookup at all. Items and
// Search come from one immutable epoch state, so refs handed to fn
// always index Items(). A handle is valid only while the View (or
// core.Pin) it was resolved from is held; one resolved from a ColStore
// directly is valid until the store is closed. Safe for concurrent use.
type Bucket = interface {
	// Items returns the bucket's intervals in insertion order. The
	// slice is read-only.
	Items() []interval.Interval
	// Search invokes fn with the index (into Items) of every interval
	// whose (start, end) point lies inside box; fn returning false
	// stops the probe.
	Search(box rtree.Rect, fn func(ref int32) bool)
}

// treeMemo lazily bulk-builds and memoizes the R-tree over a fixed
// interval slice. Safe for concurrent use; the warm path is one atomic
// load.
type treeMemo struct {
	once sync.Once
	tree atomic.Pointer[rtree.Tree]
}

// get returns the memoized tree, building it on first call; built is
// incremented exactly once, by the build.
func (m *treeMemo) get(items []interval.Interval, built *atomic.Int64) *rtree.Tree {
	if t := m.tree.Load(); t != nil {
		return t
	}
	m.once.Do(func() {
		m.tree.Store(TreeOf(items))
		built.Add(1)
	})
	return m.tree.Load()
}

// ready reports whether the tree has been built.
func (m *treeMemo) ready() bool { return m != nil && m.tree.Load() != nil }

// bucket is one bucket as visible at one epoch. It is immutable after
// publication: items[:sealed] is the sealed prefix covered by the base
// R-tree (shared with earlier epochs until a compaction reseals the
// bucket), items[sealed:] is the epoch's delta covered by the small
// delta tree. Later epochs may extend the shared backing array beyond
// len(items); the visible prefix is never rewritten. A restored
// bucket's items may alias a read-only snapshot mapping, which is why
// BuildSealed clips them and the append path copies such a bucket
// before extending it.
type bucket struct {
	cs     *ColStore // owner; index builds and reuses are counted there
	items  []interval.Interval
	sealed int
	base   *treeMemo // over items[:sealed]; nil iff sealed == 0
	delta  *treeMemo // over items[sealed:]; nil iff sealed == len(items)
}

// Items implements Bucket.
func (b *bucket) Items() []interval.Interval { return b.items }

// Search implements Bucket: it probes the base tree and then the delta
// tree. It is the one probe implementation; every accessor below
// resolves a bucket and calls it.
func (b *bucket) Search(box rtree.Rect, fn func(ref int32) bool) {
	if b.sealed > 0 {
		t := b.base.get(b.items[:b.sealed], &b.cs.treesBuilt)
		if !t.Search(box, func(pt rtree.Point) bool { return fn(pt.Ref) }) {
			return
		}
	}
	if b.sealed < len(b.items) {
		off := int32(b.sealed)
		t := b.delta.get(b.items[b.sealed:], &b.cs.deltaTreesBuilt)
		t.Search(box, func(pt rtree.Point) bool { return fn(off + pt.Ref) })
	}
}

// colView is one collection's immutable bucket partition at one epoch.
type colView struct {
	buckets map[gkey]*bucket
	n       int // intervals visible at this epoch
}

// resolve returns bucket (startG, endG) as a handle — a nil interface,
// not a typed nil, when the bucket is absent — and counts one TreeHits
// per index of the bucket that is already memoized. Reuses are counted
// here, once per resolution, because the probe itself must not write to
// a cache line every reducer goroutine shares.
func (v *colView) resolve(startG, endG int) Bucket {
	b := v.buckets[gkey{startG, endG}]
	if b == nil {
		return nil
	}
	var hits int64
	if b.base.ready() {
		hits++
	}
	if b.delta.ready() {
		hits++
	}
	if hits > 0 {
		b.cs.treeHits.Add(hits)
	}
	return b
}

// ColStore holds one collection's bucket partition. Its accessors
// serve the latest published epoch, each call loading the current view
// on its own. Bucket is the accessor to use under concurrent Append: the
// handle it returns is one immutable epoch's bucket, so its Items and
// every ref its Search yields agree by construction, however many
// epochs are published meanwhile. BucketItems and SearchBucket are the
// legacy two-call form kept for tests and diagnostics: two calls can
// land on two epochs, so never index one's slice with the other's refs.
// Successive Bucket calls can also observe different epochs — a query,
// which must see every bucket at one epoch, pins a Store.View instead.
type ColStore struct {
	col  int
	gran stats.Granulation
	// cur is the latest published epoch view. Reads are lock-free;
	// writes happen under the owning Store's mutex.
	cur atomic.Pointer[colView]

	treesBuilt      atomic.Int64
	deltaTreesBuilt atomic.Int64
	treeHits        atomic.Int64
	compactions     atomic.Int64
}

// Col returns the collection index the store was built from.
func (cs *ColStore) Col() int { return cs.col }

// Granulation returns the granulation the partition was built under.
func (cs *ColStore) Granulation() stats.Granulation { return cs.gran }

// NumBuckets returns the number of non-empty buckets.
func (cs *ColStore) NumBuckets() int { return len(cs.cur.Load().buckets) }

// Bucket resolves bucket (startG, endG) at the latest epoch; nil for an
// empty bucket.
func (cs *ColStore) Bucket(startG, endG int) Bucket {
	return cs.cur.Load().resolve(startG, endG)
}

// BucketItems returns the intervals of bucket (startG, endG) at the
// latest epoch, in insertion order; nil for an empty bucket.
func (cs *ColStore) BucketItems(startG, endG int) []interval.Interval {
	b := cs.cur.Load().buckets[gkey{startG, endG}]
	if b == nil {
		return nil
	}
	return b.items
}

// SearchBucket is Bucket(startG, endG).Search(box, fn), a no-op for an
// empty bucket. fn's refs index the probed epoch's items, which a
// separate BucketItems call may not return (see ColStore).
func (cs *ColStore) SearchBucket(startG, endG int, box rtree.Rect, fn func(ref int32) bool) {
	if b := cs.Bucket(startG, endG); b != nil {
		b.Search(box, fn)
	}
}

// BucketTree returns the memoized R-tree over the *sealed* prefix of
// bucket (startG, endG), bulk-building it on first request, or nil for
// an empty bucket. A bucket carrying unsealed delta intervals is not
// fully covered by this tree — query paths must use Bucket, whose Search
// also probes the delta; BucketTree exists for tests and diagnostics.
func (cs *ColStore) BucketTree(startG, endG int) *rtree.Tree {
	b := cs.cur.Load().buckets[gkey{startG, endG}]
	if b == nil || b.sealed == 0 {
		return nil
	}
	if b.base.ready() {
		cs.treeHits.Add(1)
	}
	return b.base.get(b.items[:b.sealed], &cs.treesBuilt)
}

// TreeOf bulk-builds the R-tree over a bucket's (start, end) points,
// with Refs indexing into items — the one place the point layout the
// join's probes rely on is defined.
func TreeOf(items []interval.Interval) *rtree.Tree {
	pts := make([]rtree.Point, len(items))
	for i, iv := range items {
		pts[i] = rtree.Point{X: float64(iv.Start), Y: float64(iv.End), Ref: int32(i)}
	}
	return rtree.Bulk(pts)
}

// Store holds the resident bucket partitions of one dataset, one
// ColStore per collection, aligned with the engine's matrices.
type Store struct {
	cols []*ColStore

	// mu serializes Append and makes (epoch, per-collection views) one
	// atomic unit for View; per-collection reads through ColStore stay
	// lock-free on the latest epoch.
	mu           sync.RWMutex
	epoch        int64
	intervals    int
	compactLimit int

	// liveViews counts pinned Views not yet Released; viewHighWater is
	// the maximum liveViews ever reached. Under continuous ingest every
	// live view keeps its epoch's touched buckets reachable, so the
	// admission layer uses these to verify that its in-flight cap bounds
	// the number of epochs alive at once (see ViewStats).
	liveViews     atomic.Int64
	viewHighWater atomic.Int64

	// region, when non-nil, is the refcounted mapping the sealed bucket
	// slices alias (BuildSealed). The store holds one reference until
	// Close; every pinned View holds another, so the mapping outlives
	// any probe in flight. Heap-built stores leave it nil.
	region Region
	closed atomic.Bool
}

// Close releases the store's reference on the backing mapped region,
// if any. The mapping is actually unmapped only once every pinned View
// has also been Released. Probing the store's latest-epoch accessors
// (ColStore methods) after Close without a pinned View is a caller
// error — query paths always pin a View. Close is idempotent; a
// heap-built store's Close is a no-op.
func (s *Store) Close() {
	if s.region != nil && !s.closed.Swap(true) {
		s.region.Release()
	}
}

// Build partitions each collection's intervals under its matrix's
// granulation and seals the result as epoch 0. It is the storage half
// of the offline statistics phase: run once per dataset, its output
// serves every subsequent query; Append extends it without re-running
// it.
func Build(cols []*interval.Collection, matrices []*stats.Matrix) (*Store, error) {
	if len(cols) != len(matrices) {
		return nil, fmt.Errorf("store: %d collections but %d matrices", len(cols), len(matrices))
	}
	s := &Store{cols: make([]*ColStore, len(cols)), compactLimit: DefaultCompactLimit}
	var wg sync.WaitGroup
	for i := range cols {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs := &ColStore{col: i, gran: matrices[i].Gran}
			buckets := make(map[gkey]*bucket)
			for _, iv := range cols[i].Items {
				l, lp := cs.gran.BucketOf(iv)
				k := gkey{l, lp}
				b := buckets[k]
				if b == nil {
					b = &bucket{cs: cs}
					buckets[k] = b
				}
				b.items = append(b.items, iv)
			}
			for _, b := range buckets {
				b.sealed = len(b.items)
				b.base = &treeMemo{}
			}
			cs.cur.Store(&colView{buckets: buckets, n: cols[i].Len()})
			s.cols[i] = cs
		}(i)
	}
	wg.Wait()
	for i := range cols {
		s.intervals += cols[i].Len()
	}
	return s, nil
}

// setCompactLimit tunes the per-bucket compaction threshold, which is
// DefaultCompactLimit outside this package's tests: a bucket reseals
// (discarding its delta tree in favor of one lazily rebuilt base tree)
// once its delta holds at least limit intervals, or more intervals than
// its sealed prefix. limit <= 0 restores the default. Call it between
// appends, not concurrently with one.
func (s *Store) setCompactLimit(limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 {
		limit = DefaultCompactLimit
	}
	s.compactLimit = limit
}

// Append publishes a new epoch in which ivs are added to collection
// col's buckets, and returns that epoch. Buckets untouched by the batch
// share their memoized R-trees with the previous epoch; a touched
// bucket keeps its sealed tree and gains a delta tree over the appended
// suffix, unless the delta crossed the compaction threshold, in which
// case the bucket is resealed and its tree rebuilt lazily on next use.
// In-flight readers of earlier epochs (pinned Views) are unaffected.
// Safe for concurrent use with all read paths; concurrent Appends
// serialize. An empty batch publishes nothing and returns the current
// epoch unchanged.
func (s *Store) Append(col int, ivs []interval.Interval) (int64, error) {
	return s.append(col, ivs, false)
}

// AppendEpoch is Append for shard replicas: it always publishes a new
// epoch, even for an empty batch. A shard worker receives only its
// owned slice of each coordinator batch — often empty — but its epoch
// sequence must advance one-for-one with the coordinator's, or query
// frames pinned at coordinator epoch E would find the replica at some
// E' < E and every subsequent epoch check would be off by the number of
// slices that happened to miss this shard.
func (s *Store) AppendEpoch(col int, ivs []interval.Interval) (int64, error) {
	return s.append(col, ivs, true)
}

func (s *Store) append(col int, ivs []interval.Interval, forceEpoch bool) (int64, error) {
	if col < 0 || col >= len(s.cols) {
		return 0, fmt.Errorf("store: append to collection %d of %d", col, len(s.cols))
	}
	for _, iv := range ivs {
		if !iv.Valid() {
			return 0, fmt.Errorf("store: appending invalid interval %v", iv)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(ivs) == 0 {
		if forceEpoch {
			s.epoch++
		}
		return s.epoch, nil
	}
	cs := s.cols[col]
	old := cs.cur.Load()

	// Group the batch per bucket, preserving arrival order.
	grouped := make(map[gkey][]interval.Interval)
	for _, iv := range ivs {
		l, lp := cs.gran.BucketOf(iv)
		k := gkey{l, lp}
		grouped[k] = append(grouped[k], iv)
	}

	buckets := maps.Clone(old.buckets)
	for k, add := range grouped {
		nb := &bucket{cs: cs}
		if ob := old.buckets[k]; ob != nil {
			// Extending the latest epoch's slice is safe: earlier epochs
			// hold shorter prefixes of the same array and the visible
			// prefix is never rewritten. A restored bucket's slice is
			// clipped (cap == len), so the first append relocates it to
			// the heap instead of writing into a read-only mapping; the
			// carried-over base tree keeps serving the sealed prefix —
			// the values are identical, only the address moved.
			nb.items = append(ob.items, add...)
			nb.sealed = ob.sealed
			nb.base = ob.base
		} else {
			nb.items = add
		}
		if deltaLen := len(nb.items) - nb.sealed; deltaLen >= s.compactLimit || deltaLen > nb.sealed {
			// Reseal: the whole bucket is covered by one base tree
			// again, rebuilt lazily on its next probe.
			nb.sealed = len(nb.items)
			nb.base = &treeMemo{}
			nb.delta = nil
			cs.compactions.Add(1)
		} else {
			nb.delta = &treeMemo{}
		}
		buckets[k] = nb
	}
	s.epoch++
	s.intervals += len(ivs)
	cs.cur.Store(&colView{buckets: buckets, n: old.n + len(ivs)})
	return s.epoch, nil
}

// Epoch returns the latest published epoch (0 for a freshly built or
// restored store; each Append increments it).
func (s *Store) Epoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Col returns the store of collection i.
func (s *Store) Col(i int) *ColStore { return s.cols[i] }

// NumCols returns the number of collections.
func (s *Store) NumCols() int { return len(s.cols) }

// Intervals returns the total number of intervals visible at the latest
// epoch.
func (s *Store) Intervals() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.intervals
}

// View pins the latest epoch: the returned View serves exactly the
// buckets visible now, unaffected by any Append published later. The
// engine pins one View per query at admission (and the standing layer
// one per push cycle), so a query never observes a partial batch or
// mixes epochs across collections. Every pinned View counts as live
// until Release is called on it (see ViewStats).
func (s *Store) View() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := &View{store: s, epoch: s.epoch, cols: make([]*ColView, len(s.cols))}
	for i, cs := range s.cols {
		v.cols[i] = &ColView{cs: cs, v: cs.cur.Load()}
	}
	if s.region != nil {
		// The view pins the mapped region its bucket slices alias: the
		// mapping can only be unmapped after the last Release, so a
		// probe mid-flight never reads unmapped memory.
		s.region.Retain()
	}
	live := s.liveViews.Add(1)
	for {
		hw := s.viewHighWater.Load()
		if live <= hw || s.viewHighWater.CompareAndSwap(hw, live) {
			break
		}
	}
	return v
}

// ViewStats describes the store's pinned-view accounting.
type ViewStats struct {
	// Live is the number of Views pinned and not yet Released. Each one
	// keeps its epoch's bucket state reachable.
	Live int64
	// HighWater is the maximum Live ever observed — the regression
	// metric for "admission bounds concurrent epochs": a busy server
	// over continuous ingest must keep it at its in-flight cap, not at
	// the query count.
	HighWater int64
}

// ViewStats returns the live-view count and its high-water mark.
func (s *Store) ViewStats() ViewStats {
	return ViewStats{Live: s.liveViews.Load(), HighWater: s.viewHighWater.Load()}
}

// View is a consistent multi-collection snapshot of the store at one
// epoch. Its bucket state is immutable and safe for concurrent use;
// Release retires the view from the store's live accounting.
type View struct {
	store    *Store
	epoch    int64
	cols     []*ColView
	released atomic.Bool
}

// Epoch returns the epoch the view was pinned at.
func (v *View) Epoch() int64 { return v.epoch }

// Release retires the view: the store's live-view count drops and the
// caller promises not to probe the view again. Releasing is what lets
// the admission layer bound how many epochs stay alive under continuous
// ingest — a view is cheap, but an unreleased one pins every bucket its
// epoch could see. Release is idempotent; a nil view is a no-op.
func (v *View) Release() {
	if v == nil || v.store == nil {
		return
	}
	if !v.released.Swap(true) {
		v.store.liveViews.Add(-1)
		if v.store.region != nil {
			v.store.region.Release()
		}
	}
}

// Col returns collection i's pinned view; it implements the join's
// bucket Source.
func (v *View) Col(i int) *ColView { return v.cols[i] }

// ColView is one collection's bucket partition pinned at one epoch.
type ColView struct {
	cs *ColStore
	v  *colView
}

// Col returns the collection index.
func (cv *ColView) Col() int { return cv.cs.col }

// Intervals returns the number of intervals visible in the pinned view.
func (cv *ColView) Intervals() int { return cv.v.n }

// Bucket resolves bucket (startG, endG) as of the pinned epoch; nil for
// an empty bucket. It implements the join's Source. The handle must not
// be used after the View is released (a mapped bucket's items alias the
// mapping the View pins).
func (cv *ColView) Bucket(startG, endG int) Bucket {
	return cv.v.resolve(startG, endG)
}

// Stats is a snapshot of the store's cumulative activity.
type Stats struct {
	// Buckets is the number of resident non-empty buckets.
	Buckets int
	// Epoch is the latest published epoch.
	Epoch int64
	// DeltaItems is the number of intervals currently living in
	// unsealed bucket deltas (appended since the bucket's last seal).
	DeltaItems int
	// TreesBuilt counts sealed (base) R-trees bulk-built since Build —
	// including rebuilds forced by compaction, and nothing else: an
	// append grows it only for buckets whose contents changed enough to
	// reseal.
	TreesBuilt int64
	// DeltaTreesBuilt counts the small per-epoch delta trees built over
	// appended suffixes.
	DeltaTreesBuilt int64
	// TreeHits counts memoized-tree reuses, once per bucket resolution
	// (Bucket, SearchBucket, BucketTree): each tree of the resolved
	// bucket — base or delta — that was already built counts one,
	// however many probes follow.
	TreeHits int64
	// Compactions counts bucket reseals triggered by the compaction
	// threshold.
	Compactions int64
}

// Snapshot returns the store's cumulative activity counters. Deltas
// between snapshots attribute tree builds and reuses to one query.
func (s *Store) Snapshot() Stats {
	s.mu.RLock()
	st := Stats{Epoch: s.epoch}
	views := make([]*colView, len(s.cols))
	for i, cs := range s.cols {
		views[i] = cs.cur.Load()
	}
	s.mu.RUnlock()
	for i, cs := range s.cols {
		st.Buckets += len(views[i].buckets)
		for _, b := range views[i].buckets {
			st.DeltaItems += len(b.items) - b.sealed
		}
		st.TreesBuilt += cs.treesBuilt.Load()
		st.DeltaTreesBuilt += cs.deltaTreesBuilt.Load()
		st.TreeHits += cs.treeHits.Load()
		st.Compactions += cs.compactions.Load()
	}
	return st
}
