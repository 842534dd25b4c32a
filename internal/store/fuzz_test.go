package store

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/stats"
)

// fuzzStoreSeed deterministically encodes a small valid two-collection
// partition for the fuzz corpus.
func fuzzStoreSeed() []byte {
	cols := []*interval.Collection{
		{Name: "A", Items: []interval.Interval{{ID: 1, Start: 5, End: 30}, {ID: 2, Start: 40, End: 90}, {ID: 3, Start: 6, End: 28}}},
		{Name: "B", Items: []interval.Interval{{ID: 1, Start: 10, End: 80}}},
	}
	ms := make([]*stats.Matrix, len(cols))
	for i, c := range cols {
		gran, _ := stats.NewGranulation(0, 100, 3)
		ms[i] = stats.NewMatrix(i, gran)
		for _, iv := range c.Items {
			ms[i].Add(iv)
		}
	}
	s, err := Build(cols, ms)
	if err != nil {
		panic(err)
	}
	return s.AppendStore(nil)
}

// FuzzReadStore drives ReadDirectory, the one walker of the store
// section: a crafted partition payload must either be refused or yield a
// directory BuildSealed takes as it stands and that re-encodes to the
// bytes consumed — never panic, never OOM (bucket and interval counts
// are bounded by the remaining payload before anything is allocated).
// The records' content is out of scope here: FuzzLoad and FuzzMmapRead
// fuzz it through snapshot.VerifyContent.
func FuzzReadStore(f *testing.F) {
	seed := fuzzStoreSeed()
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-1] ^= 0x40 // corrupt an interval payload word
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := interval.NewBinaryReader(data)
		cols, err := ReadDirectory(r)
		if err != nil {
			return
		}
		for _, c := range cols {
			for _, b := range c.Buckets {
				if len(b.Records) == 0 || len(b.Records)%interval.BinaryIntervalSize != 0 {
					t.Fatalf("collection %d bucket (%d,%d): record range of %d bytes", c.Col, b.StartG, b.EndG, len(b.Records))
				}
			}
		}
		s, err := BuildSealed(heapItems(cols), nil)
		if err != nil {
			t.Fatalf("BuildSealed refused a directory ReadDirectory accepted: %v", err)
		}
		if s.Epoch() != 0 {
			t.Fatalf("decoded store at epoch %d", s.Epoch())
		}
		// The writer lists each directory in (startG, endG) order; the
		// reader has always taken any order (TestReadDirectoryTakesAnyOrder),
		// which re-encodes to the writer's. So byte identity holds for an
		// input in the writer's order and equal length for every other.
		canonical := true
		for _, c := range cols {
			canonical = canonical && slices.IsSortedFunc(c.Buckets, func(a, b MappedBucket) int {
				return cmp.Or(a.StartG-b.StartG, a.EndG-b.EndG)
			})
		}
		re := s.AppendStore(nil)
		if canonical && !bytes.Equal(re, data[:r.Offset()]) {
			t.Fatalf("re-encode mismatch over %d consumed bytes", r.Offset())
		}
		if len(re) != r.Offset() {
			t.Fatalf("re-encoded %d bytes from %d consumed", len(re), r.Offset())
		}
	})
}
