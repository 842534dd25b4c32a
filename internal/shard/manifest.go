package shard

import "tkij/internal/stats"

// Manifest is the bucket→shard ownership map: round-robin over the
// store's snapshot section layout (collection-major, deterministic
// (startG, endG) section order), so the same store — live or restored
// from its snapshot — always partitions identically. Buckets born after
// the manifest (appended intervals opening a fresh bucket) fall through
// to a deterministic hash of the bucket key, so coordinator and any
// future manifest reader agree on ownership without re-negotiating.
type Manifest struct {
	shards int
	owners map[stats.BucketKey]int
	// counts[s] is the number of layout buckets shard s owns.
	counts []int
}

// NewManifest partitions layout (see store.SectionLayout) over n shards
// round-robin.
func NewManifest(layout []stats.BucketKey, shards int) *Manifest {
	m := &Manifest{
		shards: shards,
		owners: make(map[stats.BucketKey]int, len(layout)),
		counts: make([]int, shards),
	}
	for i, k := range layout {
		s := i % shards
		m.owners[k] = s
		m.counts[s]++
	}
	return m
}

// Shards returns the shard count N.
func (m *Manifest) Shards() int { return m.shards }

// Buckets returns the number of layout buckets shard s owns.
func (m *Manifest) Buckets(s int) int { return m.counts[s] }

// Owner returns the shard owning bucket k: its layout slot, or the hash
// fallback for buckets the layout never saw.
func (m *Manifest) Owner(k stats.BucketKey) int {
	if s, ok := m.owners[k]; ok {
		return s
	}
	// FNV-style fold over the three key coordinates; stable across
	// processes (no map iteration, no seeds).
	h := uint64(1469598103934665603)
	for _, v := range [3]int{k.Col, k.StartG, k.EndG} {
		h ^= uint64(int64(v))
		h *= 1099511628211
	}
	return int(h % uint64(m.shards))
}

// Partition slices owned-bucket lists out of the layout: per shard, per
// collection, the bucket keys that shard owns, in layout order. nCols
// is the store's collection count; every shard gets an entry for every
// collection (possibly empty), so each shard's Load frame carries one
// store.MappedCol per collection, as store.BuildSealed expects.
func (m *Manifest) Partition(layout []stats.BucketKey, nCols int) [][][]stats.BucketKey {
	parts := make([][][]stats.BucketKey, m.shards)
	for s := range parts {
		parts[s] = make([][]stats.BucketKey, nCols)
	}
	for i, k := range layout {
		s := i % m.shards
		parts[s][k.Col] = append(parts[s][k.Col], k)
	}
	return parts
}
