package store

import (
	"fmt"

	"tkij/internal/interval"
	"tkij/internal/stats"
)

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
	// ReadDirectory walked; BuildSealed does not look at it.
	Records []byte
}

// MappedCol is one collection's sealed partition: what ReadDirectory
// returns, a shard Load frame carries, and BuildSealed takes.
type MappedCol struct {
	Col     int
	Gran    stats.Granulation
	Buckets []MappedBucket
}

// BuildSealed assembles the epoch-0 store directly over pre-partitioned
// sealed buckets — the restore path (a snapshot decoded onto the heap,
// a mapped snapshot, a shard worker's Load frame). No interval is
// copied: each bucket slice is served as-is, its sealed prefix indexed
// by a lazily memoized R-tree exactly as Build leaves it, so only the
// index lives on the heap. region, when non-nil, is what the slices
// alias (a snapshot mapping): it is retained once for the store itself
// plus once per pinned View, and Close releases the store's reference.
//
// The caller is responsible for the slices being structurally valid for
// their declared buckets; only the cheap shape invariants are checked
// here, so construction stays O(buckets), not O(intervals).
func BuildSealed(cols []MappedCol, region Region) (*Store, error) {
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
			// writing past len into a read-only mapping.
			items := mb.Items[:len(mb.Items):len(mb.Items)]
			buckets[k] = &bucket{cs: cs, items: items, sealed: len(items), base: &treeMemo{}}
			n += len(items)
		}
		cs.cur.Store(&colView{buckets: buckets, n: n})
		s.cols[i] = cs
		s.intervals += n
	}
	if region != nil {
		s.region = region
		region.Retain()
	}
	return s, nil
}
