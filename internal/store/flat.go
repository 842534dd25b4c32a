package store

import (
	"fmt"

	"tkij/internal/interval"
	"tkij/internal/rtree"
	"tkij/internal/stats"
)

// The flat sorted-endpoint join kernel for sealed buckets.
//
// A sealed bucket backed by a snapshot mapping is probed without an
// R-tree: its intervals stay where the mmap put them (24-byte records,
// never decoded into nodes), and the kernel's only derived state is a
// pair of sorted projections — start endpoints ascending and end
// endpoints ascending, each with a ref back into the bucket slice. A
// box probe then narrows one axis by galloping binary search over the
// sorted projection, scans the (usually short) surviving run, and
// filters the other axis against the record itself. The projections
// are built once per bucket in a single arena allocation and memoized,
// like the R-trees they replace; the probe itself allocates nothing.
//
// The kernel serves the three predicate-derived box classes the local
// join produces (see localJoiner.candidateBox):
//
//   - overlap-style boxes constrain both axes: the kernel picks the
//     axis with the shorter run;
//   - before-style boxes constrain only the end axis (MinY/MaxY):
//     the end projection narrows, the start axis passes everything;
//   - after-style boxes constrain only the start axis (MinX/MaxX):
//     the start projection narrows.

// flatIndex is the memoized sorted-endpoint projection of one sealed
// bucket. All four slices share one arena allocation; byStart/byEnd
// are ascending, refs index the bucket's item slice.
type flatIndex struct {
	byStart   []int64 // start endpoints, ascending
	startRefs []int32 // startRefs[i]: item whose start is byStart[i]
	byEnd     []int64 // end endpoints, ascending
	endRefs   []int32
}

// buildFlatIndex sorts the endpoint projections of items. The two
// int64 columns share one backing array and the two ref columns
// another, so a build costs two allocations regardless of bucket size
// plus the two sorts.
func buildFlatIndex(items []interval.Interval) *flatIndex {
	n := len(items)
	ints := make([]int64, 2*n)
	refs := make([]int32, 2*n)
	idx := &flatIndex{
		byStart:   ints[:n:n],
		byEnd:     ints[n:],
		startRefs: refs[:n:n],
		endRefs:   refs[n:],
	}
	for i := range items {
		idx.startRefs[i] = int32(i)
		idx.endRefs[i] = int32(i)
	}
	sortRefsByKey(idx.startRefs, func(r int32) int64 { return items[r].Start })
	sortRefsByKey(idx.endRefs, func(r int32) int64 { return items[r].End })
	for i, r := range idx.startRefs {
		idx.byStart[i] = items[r].Start
	}
	for i, r := range idx.endRefs {
		idx.byEnd[i] = items[r].End
	}
	return idx
}

// sortRefsByKey sorts refs by the int64 key function (insertion-order
// stable ties via the ref value itself, keeping builds deterministic).
func sortRefsByKey(refs []int32, key func(int32) int64) {
	// pdqsort via sort.Slice would allocate a closure per call site
	// anyway; refs slices are built once per bucket, so a simple
	// bottom-up heapsort keeps the build allocation-free beyond the
	// arena. Bucket sizes are modest (n/bucket count), so the constant
	// factor is irrelevant next to the R-tree build it replaces.
	n := len(refs)
	less := func(a, b int32) bool {
		ka, kb := key(a), key(b)
		if ka != kb {
			return ka < kb
		}
		return a < b
	}
	siftDown := func(lo, hi int) {
		root := lo
		for {
			child := 2*root + 1
			if child >= hi {
				return
			}
			if child+1 < hi && less(refs[child], refs[child+1]) {
				child++
			}
			if !less(refs[root], refs[child]) {
				return
			}
			refs[root], refs[child] = refs[child], refs[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		refs[0], refs[i] = refs[i], refs[0]
		siftDown(0, i)
	}
}

// gallopGE returns the first index i in the ascending slice a with
// a[i] >= x, by exponential (galloping) probe followed by binary
// search inside the located bracket — O(log d) in the distance d to
// the answer, which is what makes repeated narrow probes against big
// buckets cheap. len(a) is returned when no element qualifies.
func gallopGE(a []int64, x int64) int {
	n := len(a)
	if n == 0 || a[0] >= x {
		return 0
	}
	// Invariant: a[lo] < x. Gallop hi until a[hi] >= x or past the end.
	lo, step := 0, 1
	hi := 1
	for hi < n && a[hi] < x {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > n {
		hi = n
	}
	// Binary search in (lo, hi].
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// gallopGT returns the first index i with a[i] > x (the exclusive
// upper bound of the run of values <= x).
func gallopGT(a []int64, x int64) int {
	if x == int64(^uint64(0)>>1) { // math.MaxInt64: everything is <= x
		return len(a)
	}
	return gallopGE(a, x+1)
}

// boxToInt clamps the float box the join derives from score thresholds
// onto the integer endpoint domain: [lo, hi] is the inclusive integer
// range inside [flo, fhi]. empty reports an empty range.
func boxToInt(flo, fhi float64) (lo, hi int64, empty bool) {
	const (
		minI = int64(-1) << 63
		maxI = int64(^uint64(0) >> 1)
	)
	if flo > fhi {
		return 0, 0, true
	}
	lo, hi = minI, maxI
	if flo > float64(minI) {
		c := int64(flo)
		if float64(c) < flo {
			c++ // ceil for positive fractional bounds
		}
		lo = c
	}
	if fhi < float64(maxI) {
		c := int64(fhi)
		if float64(c) > fhi {
			c-- // floor
		}
		hi = c
	}
	if lo > hi {
		return 0, 0, true
	}
	return lo, hi, false
}

// search probes the bucket for records inside box, invoking fn with
// refs into items exactly as the R-tree path does. It returns false
// when fn stopped the probe. Allocation-free.
func (idx *flatIndex) search(box rtree.Rect, items []interval.Interval, fn func(ref int32) bool) bool {
	sLo, sHi, sEmpty := boxToInt(box.MinX, box.MaxX)
	eLo, eHi, eEmpty := boxToInt(box.MinY, box.MaxY)
	if sEmpty || eEmpty {
		return true
	}
	si, sj := gallopGE(idx.byStart, sLo), gallopGT(idx.byStart, sHi)
	ei, ej := gallopGE(idx.byEnd, eLo), gallopGT(idx.byEnd, eHi)
	if sj-si <= ej-ei {
		// Scan the start-sorted run, filter the end axis on the record.
		for i := si; i < sj; i++ {
			r := idx.startRefs[i]
			if e := items[r].End; e >= eLo && e <= eHi {
				if !fn(r) {
					return false
				}
			}
		}
		return true
	}
	for i := ei; i < ej; i++ {
		r := idx.endRefs[i]
		if s := items[r].Start; s >= sLo && s <= sHi {
			if !fn(r) {
				return false
			}
		}
	}
	return true
}

// Region is a refcounted resource backing a store's sealed bucket
// memory — in practice the mmapstore reader whose mapping the zero-copy
// bucket slices point into. The store retains it once per pinned View
// (and once for itself until Close), so the mapping cannot be unmapped
// under a view mid-probe: the last Release is what actually unmaps.
type Region interface {
	// Retain adds one reference. It must not be called after the count
	// has reached zero (the region is gone); implementations panic on
	// that programming error rather than serve unmapped memory.
	Retain()
	// Release drops one reference, destroying the region at zero.
	Release()
}

// MappedBucket is one sealed bucket of a restored partition: its
// granule key, the interval slice the store will serve, and the byte
// range those intervals were read from.
type MappedBucket struct {
	StartG, EndG int
	// Items is served as-is and never written or appended in place (the
	// store copies on first append), so it may alias a read-only
	// snapshot mapping.
	Items []interval.Interval
	// Records is the bucket's record byte range in the image
	// ReadDirectory walked; the constructors below do not look at it.
	Records []byte
}

// MappedCol is one collection's sealed partition: what ReadDirectory
// returns, a shard Load frame carries, and BuildMapped/BuildSealed take.
type MappedCol struct {
	Col     int
	Gran    stats.Granulation
	Buckets []MappedBucket
}

// BuildMapped assembles a store directly over pre-partitioned sealed
// buckets — the zero-copy restore path. No intervals are copied or
// decoded: each bucket slice is served as-is, probed through the flat
// sorted-endpoint kernel instead of R-trees (delta R-trees still cover
// any suffix Append publishes later). region, when non-nil, is retained
// once for the store itself plus once per pinned View; Close releases
// the store's reference.
//
// The caller (internal/mmapstore) is responsible for the slices being
// structurally valid for their declared buckets; only the cheap shape
// invariants are checked here, so construction stays O(buckets), not
// O(intervals).
func BuildMapped(cols []MappedCol, region Region) (*Store, error) {
	s, err := assemble(cols, true)
	if err != nil {
		return nil, err
	}
	if region != nil {
		s.region = region
		region.Retain()
	}
	return s, nil
}

// BuildSealed is BuildMapped for buckets decoded onto the heap (the
// snapshot.Decode restore path and a shard worker's Load frame): same
// assembly, but sealed prefixes are indexed by lazily memoized R-trees,
// exactly as Build leaves them.
func BuildSealed(cols []MappedCol) (*Store, error) {
	return assemble(cols, false)
}

// assemble builds the epoch-0 store over cols; flat selects the sealed
// index kind (see bucket).
func assemble(cols []MappedCol, flat bool) (*Store, error) {
	s := &Store{cols: make([]*ColStore, len(cols)), compactLimit: DefaultCompactLimit}
	for i, mc := range cols {
		if mc.Col != i {
			return nil, fmt.Errorf("store: mapped partition %d encodes collection %d", i, mc.Col)
		}
		cs := &ColStore{col: i, gran: mc.Gran}
		buckets := make(map[gkey]*bucket, len(mc.Buckets))
		n := 0
		for _, mb := range mc.Buckets {
			if len(mb.Items) == 0 {
				return nil, fmt.Errorf("store: mapped bucket (%d,%d) of collection %d is empty", mb.StartG, mb.EndG, i)
			}
			k := gkey{mb.StartG, mb.EndG}
			if buckets[k] != nil {
				return nil, fmt.Errorf("store: mapped bucket (%d,%d) of collection %d appears twice", mb.StartG, mb.EndG, i)
			}
			// Clip so a later Append relocates to the heap instead of
			// writing past len into the read-only mapping.
			b := &bucket{cs: cs, items: mb.Items[:len(mb.Items):len(mb.Items)], sealed: len(mb.Items)}
			if flat {
				b.flat = &flatMemo{}
			} else {
				b.base = &treeMemo{}
			}
			buckets[k] = b
			n += len(mb.Items)
		}
		cs.cur.Store(&colView{buckets: buckets, n: n})
		s.cols[i] = cs
		s.intervals += n
	}
	return s, nil
}
