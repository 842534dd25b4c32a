package distribute

import (
	"reflect"
	"testing"

	"tkij/internal/stats"
)

// TestPlaceShipsOnlyForeignBuckets pins the placement contract: every
// routed (bucket → reducer) reference resolves locally when the
// reducer's shard owns the bucket and appears exactly once in the
// owning-less shard's shipping list otherwise, with sizes summed per
// shipped copy.
func TestPlaceShipsOnlyForeignBuckets(t *testing.T) {
	b := func(col, sg, eg int) stats.BucketKey { return stats.BucketKey{Col: col, StartG: sg, EndG: eg} }
	assign := &Assignment{
		Reducers: 4,
		BucketReducers: map[stats.BucketKey][]int{
			b(0, 0, 1): {0, 1}, // vertex 0 -> collection 2
			b(1, 2, 3): {1, 2}, // vertex 1 -> collection 1
			b(1, 4, 4): {3},    // vertex 1 -> collection 1
		},
	}
	mapping := []int{2, 1}
	// Ownership: collection-2 buckets on shard 0, collection-1 on shard 1.
	owner := func(k stats.BucketKey) int {
		if k.Col == 2 {
			return 0
		}
		return 1
	}
	sizes := map[stats.BucketKey]int{
		b(2, 0, 1): 10,
		b(1, 2, 3): 7,
		b(1, 4, 4): 3,
	}
	size := func(k stats.BucketKey) int { return sizes[k] }

	p := Place(assign, 2, mapping, owner, size)

	if got, want := p.ReducerShard, []int{0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ReducerShard = %v, want %v", got, want)
	}
	// Reducer 0 (shard 0) needs collection-2 bucket (0,1): owned -> local.
	// Reducer 1 (shard 1) needs it too: foreign -> shipped to shard 1.
	// Reducer 1 and 3 (shard 1) need collection-1 buckets: owned -> local.
	// Reducer 2 (shard 0) needs (1,2,3): foreign -> shipped to shard 0.
	if got, want := p.Shipped[0], []stats.BucketKey{b(1, 2, 3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Shipped[0] = %v, want %v", got, want)
	}
	if got, want := p.Shipped[1], []stats.BucketKey{b(2, 0, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Shipped[1] = %v, want %v", got, want)
	}
	if p.ShippedRecords != 17 {
		t.Fatalf("ShippedRecords = %g, want 17", p.ShippedRecords)
	}
}

// TestPlaceDedupesPerShard checks that a bucket needed by several
// reducers of one shard ships once, but a bucket needed by several
// shards ships once per shard.
func TestPlaceDedupesPerShard(t *testing.T) {
	key := stats.BucketKey{Col: 0, StartG: 1, EndG: 2}
	assign := &Assignment{
		Reducers:       4,
		BucketReducers: map[stats.BucketKey][]int{key: {0, 1, 2, 3}},
	}
	// Nobody owns it locally: owner says shard 9 (out of range on
	// purpose — appended buckets can be owned by any shard, and here we
	// force every reference remote).
	p := Place(assign, 2, nil, func(stats.BucketKey) int { return 9 },
		func(stats.BucketKey) int { return 5 })
	if len(p.Shipped[0]) != 1 || len(p.Shipped[1]) != 1 {
		t.Fatalf("Shipped = %v, want one copy per shard", p.Shipped)
	}
	if p.ShippedRecords != 10 {
		t.Fatalf("ShippedRecords = %g, want 10 (5 per shard copy)", p.ShippedRecords)
	}
}
