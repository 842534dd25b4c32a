package store

import (
	"fmt"
	"slices"

	"tkij/internal/interval"
	"tkij/internal/stats"
)

// Binary codec for the bucket partition — the storage half of a
// snapshot. Per collection, a fixed-width bucket directory (start
// granule, end granule, count) precedes the interval payloads, which
// are written contiguously per bucket in directory order. Every word is
// 8-byte aligned and intervals use the 24-byte fixed layout, so a
// future reader can mmap the snapshot and serve BucketItems straight
// from the mapping.
//
// Item order within each bucket is preserved exactly: the memoized
// R-trees index buckets by position (rtree.Point.Ref), so a restored
// store must present every bucket slice in its original order for tree
// Refs to keep resolving to the same intervals.

// sortedKeys returns a partition's bucket keys in deterministic
// (startG, endG) order.
func sortedKeys(buckets map[gkey]*bucket) []gkey {
	keys := make([]gkey, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b gkey) int {
		if a.startG != b.startG {
			return a.startG - b.startG
		}
		return a.endG - b.endG
	})
	return keys
}

// SectionLayout returns every resident bucket's key at the latest
// epoch, collection-major with each collection's buckets in the codec's
// deterministic (startG, endG) section order — exactly the order
// AppendColStore lays bucket payloads out in a snapshot. The shard
// manifest is derived from this layout (round-robin over sections), so
// a shard partition can be recomputed from either a live store or its
// snapshot file and land on identical ownership.
func (s *Store) SectionLayout() []stats.BucketKey {
	var layout []stats.BucketKey
	for i, cs := range s.cols {
		for _, k := range sortedKeys(cs.cur.Load().buckets) {
			layout = append(layout, stats.BucketKey{Col: i, StartG: k.startG, EndG: k.endG})
		}
	}
	return layout
}

// AppendColStore appends one collection's partition as of the latest
// epoch: collection index, granulation, bucket count, the bucket
// directory, then each bucket's contiguous interval payload in
// directory order. Bucket deltas are folded in (each bucket's items are
// written base-then-delta, the live order), so a decoded partition is
// fully sealed.
func (cs *ColStore) AppendColStore(dst []byte) []byte {
	view := cs.cur.Load()
	dst = interval.AppendI64(dst, int64(cs.col))
	dst = stats.AppendGranulation(dst, cs.gran)
	keys := sortedKeys(view.buckets)
	dst = interval.AppendU64(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = interval.AppendI64(dst, int64(k.startG))
		dst = interval.AppendI64(dst, int64(k.endG))
		dst = interval.AppendU64(dst, uint64(len(view.buckets[k].items)))
	}
	for _, k := range keys {
		dst = interval.AppendIntervals(dst, view.buckets[k].items)
	}
	return dst
}

// ReadColStore consumes one encoded collection partition, rebuilding
// the bucket map with fresh (unmemoized) R-tree slots. Every interval
// is re-bucketed under the decoded granulation and checked against the
// bucket it was stored in, so a corrupted payload cannot produce a
// store that silently serves wrong buckets.
func ReadColStore(r *interval.BinaryReader) (*ColStore, error) {
	col := r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if col < 0 {
		return nil, fmt.Errorf("store: decoding partition: negative collection index %d", col)
	}
	gran, err := stats.ReadGranulation(r)
	if err != nil {
		return nil, fmt.Errorf("store: decoding partition of collection %d: %w", col, err)
	}
	nBuckets := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if int64(nBuckets) < 0 || nBuckets > uint64(r.Len()/24) {
		return nil, fmt.Errorf("store: collection %d declares %d buckets, payload holds at most %d", col, nBuckets, r.Len()/24)
	}
	type dirEntry struct {
		key   gkey
		count int
	}
	dir := make([]dirEntry, nBuckets)
	cs := &ColStore{col: int(col), gran: gran}
	buckets := make(map[gkey]*bucket, nBuckets)
	total := 0
	for i := range dir {
		startG, endG := int(r.I64()), int(r.I64())
		count := r.U64()
		if err := r.Err(); err != nil {
			// Unreachable while the nBuckets bound above guarantees the
			// 24-byte entries fit, but a break here would leave
			// zero-valued entries for the payload loop to dereference.
			return nil, fmt.Errorf("store: decoding partition of collection %d: %w", col, err)
		}
		if startG < 0 || startG >= gran.G || endG < startG || endG >= gran.G {
			return nil, fmt.Errorf("store: collection %d bucket (%d,%d) outside granulation g=%d", col, startG, endG, gran.G)
		}
		if count == 0 || count > uint64(r.Len()/interval.BinaryIntervalSize) {
			return nil, fmt.Errorf("store: collection %d bucket (%d,%d) declares %d intervals, payload holds at most %d",
				col, startG, endG, count, r.Len()/interval.BinaryIntervalSize)
		}
		k := gkey{startG, endG}
		if buckets[k] != nil {
			return nil, fmt.Errorf("store: collection %d bucket (%d,%d) appears twice", col, startG, endG)
		}
		buckets[k] = &bucket{cs: cs}
		dir[i] = dirEntry{key: k, count: int(count)}
	}
	for _, d := range dir {
		items, err := interval.DecodeIntervals(r.Bytes(d.count * interval.BinaryIntervalSize))
		if err != nil {
			return nil, fmt.Errorf("store: collection %d bucket (%d,%d): %w", col, d.key.startG, d.key.endG, err)
		}
		for i, iv := range items {
			if l, lp := gran.BucketOf(iv); l != d.key.startG || lp != d.key.endG {
				return nil, fmt.Errorf("store: collection %d bucket (%d,%d) item %d %v belongs in bucket (%d,%d)",
					col, d.key.startG, d.key.endG, i, iv, l, lp)
			}
		}
		b := buckets[d.key]
		b.items = items
		b.sealed = len(items)
		b.base = &treeMemo{}
		total += len(items)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: decoding partition of collection %d: %w", col, err)
	}
	cs.cur.Store(&colView{buckets: buckets, n: total})
	return cs, nil
}

// AppendStore appends the whole dataset partition: the collection
// count, then each collection's length-prefixed partition. Each
// partition is appended in place with its length prefix backfilled —
// the payload is the bulk of a snapshot, so it is never staged through
// a temporary buffer.
func (s *Store) AppendStore(dst []byte) []byte {
	dst = interval.AppendU64(dst, uint64(len(s.cols)))
	for _, cs := range s.cols {
		lenAt := len(dst)
		dst = interval.AppendU64(dst, 0) // length, backfilled below
		bodyStart := len(dst)
		dst = cs.AppendColStore(dst)
		interval.PutU64(dst[lenAt:], uint64(len(dst)-bodyStart))
	}
	return dst
}

// ReadStore decodes a dataset partition previously written by
// AppendStore. Collections must appear in index order with no gaps; it
// never returns a partially decoded store.
func ReadStore(r *interval.BinaryReader) (*Store, error) {
	nCols := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nCols == 0 || nCols > uint64(r.Len()/8+1) {
		return nil, fmt.Errorf("store: snapshot declares %d collections", nCols)
	}
	s := &Store{cols: make([]*ColStore, nCols), compactLimit: DefaultCompactLimit}
	for i := range s.cols {
		bodyLen := r.U64()
		body := r.Bytes(int(bodyLen))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("store: decoding collection %d: %w", i, err)
		}
		br := interval.NewBinaryReader(body)
		cs, err := ReadColStore(br)
		if err != nil {
			return nil, err
		}
		if br.Len() != 0 {
			return nil, fmt.Errorf("store: collection %d partition has %d trailing bytes", i, br.Len())
		}
		if cs.col != i {
			return nil, fmt.Errorf("store: partition %d encodes collection %d", i, cs.col)
		}
		s.intervals += cs.cur.Load().n
		s.cols[i] = cs
	}
	return s, nil
}
