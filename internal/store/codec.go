package store

import (
	"fmt"
	"slices"

	"tkij/internal/interval"
	"tkij/internal/stats"
)

// Binary codec for the bucket partition — the store section of a
// snapshot (docs/SNAPSHOT_FORMAT.md). Per collection, a fixed-width
// bucket directory (start granule, end granule, count) precedes the
// interval payloads, which are written contiguously per bucket in
// directory order. Every word is 8-byte aligned and intervals use the
// 24-byte fixed layout, so ReadDirectory hands out byte ranges that
// internal/mmapstore serves in place and snapshot.Decode copies.
//
// Item order within each bucket is preserved exactly: the memoized
// indexes reference a bucket's intervals by position, so a restored
// store must present every bucket slice in its original order for
// refs to keep resolving to the same intervals.

// dirEntrySize is the encoded size of one bucket directory entry:
// start granule, end granule, count.
const dirEntrySize = 24

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

// ReadDirectory walks a dataset partition written by AppendStore down
// to its bucket directories. It is the only reader of this layout, and
// it decodes and copies no interval: each returned bucket carries its
// record byte range (Records, a subslice of r's buffer) and no Items —
// the caller copies the records to the heap or views them in place, and
// owns their content checks (snapshot.VerifyContent). Collections must
// appear in index order with no gaps, and every declared count is
// bounded by the bytes that remain before anything is allocated.
func ReadDirectory(r *interval.BinaryReader) ([]MappedCol, error) {
	nCols := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nCols == 0 || nCols > uint64(r.Len()/8+1) {
		return nil, fmt.Errorf("store: snapshot declares %d collections", nCols)
	}
	cols := make([]MappedCol, nCols)
	for i := range cols {
		bodyLen := r.U64()
		body := r.Bytes(int(bodyLen))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("store: decoding collection %d: %w", i, err)
		}
		br := interval.NewBinaryReader(body)
		c, err := readColDirectory(br)
		if err != nil {
			return nil, err
		}
		if br.Len() != 0 {
			return nil, fmt.Errorf("store: collection %d partition has %d trailing bytes", i, br.Len())
		}
		if c.Col != i {
			return nil, fmt.Errorf("store: partition %d encodes collection %d", i, c.Col)
		}
		cols[i] = c
	}
	return cols, nil
}

// readColDirectory consumes one collection's partition: the fixed-width
// directory is validated entry by entry (granule bounds, duplicate keys,
// count against the unread payload) while each bucket's record range is
// sliced off the payload that follows it, in directory order.
func readColDirectory(r *interval.BinaryReader) (MappedCol, error) {
	col := r.I64()
	if err := r.Err(); err != nil {
		return MappedCol{}, err
	}
	if col < 0 {
		return MappedCol{}, fmt.Errorf("store: decoding partition: negative collection index %d", col)
	}
	gran, err := stats.ReadGranulation(r)
	if err != nil {
		return MappedCol{}, fmt.Errorf("store: decoding partition of collection %d: %w", col, err)
	}
	nBuckets := r.U64()
	if err := r.Err(); err != nil {
		return MappedCol{}, err
	}
	if int64(nBuckets) < 0 || nBuckets > uint64(r.Len()/dirEntrySize) {
		return MappedCol{}, fmt.Errorf("store: collection %d declares %d buckets, payload holds at most %d", col, nBuckets, r.Len()/dirEntrySize)
	}
	c := MappedCol{Col: int(col), Gran: gran, Buckets: make([]MappedBucket, nBuckets)}
	dir := interval.NewBinaryReader(r.Bytes(int(nBuckets) * dirEntrySize))
	seen := make(map[gkey]bool, nBuckets)
	for i := range c.Buckets {
		startG, endG, count := int(dir.I64()), int(dir.I64()), dir.U64()
		if startG < 0 || startG >= gran.G || endG < startG || endG >= gran.G {
			return MappedCol{}, fmt.Errorf("store: collection %d bucket (%d,%d) outside granulation g=%d", col, startG, endG, gran.G)
		}
		if count == 0 || count > uint64(r.Len()/interval.BinaryIntervalSize) {
			return MappedCol{}, fmt.Errorf("store: collection %d bucket (%d,%d) declares %d intervals, payload holds at most %d",
				col, startG, endG, count, r.Len()/interval.BinaryIntervalSize)
		}
		if seen[gkey{startG, endG}] {
			return MappedCol{}, fmt.Errorf("store: collection %d bucket (%d,%d) appears twice", col, startG, endG)
		}
		seen[gkey{startG, endG}] = true
		c.Buckets[i] = MappedBucket{StartG: startG, EndG: endG, Records: r.Bytes(int(count) * interval.BinaryIntervalSize)}
	}
	return c, nil
}
