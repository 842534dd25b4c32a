package store

import (
	"fmt"

	"tkij/internal/interval"
	"tkij/internal/stats"
)

// BucketSlice is one explicit bucket handed to BuildBuckets: the
// (startG, endG) key plus its intervals in their resident order.
type BucketSlice struct {
	StartG, EndG int
	Items        []interval.Interval
}

// PartitionCol is one collection's share of a shard partition: the
// granulation its buckets were cut under and the bucket slices this
// shard owns. A collection that contributes no buckets to the shard
// still appears (with an empty Buckets list) so the shard store has one
// ColStore per collection, aligned with the coordinator's indexes.
type PartitionCol struct {
	Col     int
	Gran    stats.Granulation
	Buckets []BucketSlice
}

// BuildBuckets assembles a store from explicit per-collection bucket
// partitions — the shard worker's bootstrap path, fed by the
// coordinator's Load frame instead of raw collections. Every interval
// is re-bucketed under the declared granulation and checked against the
// bucket it arrived in, the same tamper check the snapshot decoder
// runs, so a mis-partitioned load fails here rather than silently
// serving wrong buckets. The result is fully sealed at epoch 0;
// AppendEpoch extends it in lockstep with the coordinator.
func BuildBuckets(cols []PartitionCol) (*Store, error) {
	s := &Store{cols: make([]*ColStore, len(cols)), compactLimit: DefaultCompactLimit}
	for i, pc := range cols {
		if pc.Col != i {
			return nil, fmt.Errorf("store: partition collection %d declared as %d", i, pc.Col)
		}
		cs := &ColStore{col: i, gran: pc.Gran}
		buckets := make(map[gkey]*bucket, len(pc.Buckets))
		n := 0
		for _, bs := range pc.Buckets {
			k := gkey{bs.StartG, bs.EndG}
			if buckets[k] != nil {
				return nil, fmt.Errorf("store: partition collection %d bucket (%d,%d) appears twice", i, bs.StartG, bs.EndG)
			}
			if len(bs.Items) == 0 {
				return nil, fmt.Errorf("store: partition collection %d bucket (%d,%d) is empty", i, bs.StartG, bs.EndG)
			}
			for _, iv := range bs.Items {
				if !iv.Valid() {
					return nil, fmt.Errorf("store: partition collection %d bucket (%d,%d) holds invalid interval %v", i, bs.StartG, bs.EndG, iv)
				}
				if l, lp := pc.Gran.BucketOf(iv); l != bs.StartG || lp != bs.EndG {
					return nil, fmt.Errorf("store: partition collection %d interval %v buckets to (%d,%d), arrived in (%d,%d)",
						i, iv, l, lp, bs.StartG, bs.EndG)
				}
			}
			buckets[k] = &bucket{cs: cs, items: bs.Items, sealed: len(bs.Items), base: &treeMemo{}}
			n += len(bs.Items)
		}
		cs.cur.Store(&colView{buckets: buckets, n: n})
		s.cols[i] = cs
		s.intervals += n
	}
	return s, nil
}
