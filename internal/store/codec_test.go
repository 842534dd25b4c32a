package store

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/rtree"
	"tkij/internal/stats"
)

func codecStore(t *testing.T, nCols, perCol int, seed int64) (*Store, []*stats.Matrix, []*interval.Collection) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, nCols)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(5000)
			c.Add(interval.Interval{ID: int64(i*100000 + j), Start: s, End: s + rng.Int63n(800)})
		}
		cols[i] = c
	}
	ms, _, err := stats.Collect(cols, 6, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(cols, ms)
	if err != nil {
		t.Fatal(err)
	}
	return st, ms, cols
}

// readStore restores an encoded partition the way snapshot.Decode does:
// the one directory walk, each record range copied to the heap, then
// BuildSealed.
func readStore(r *interval.BinaryReader) (*Store, error) {
	cols, err := ReadDirectory(r)
	if err != nil {
		return nil, err
	}
	return BuildSealed(heapItems(cols), nil)
}

// heapItems fills every bucket's Items with a plain copy of its Records.
// It judges nothing: what a record says (start <= end, the bucket it
// belongs in) is snapshot.VerifyContent's rule, and is tested where it
// runs — TestSnapshotRejectsDamage in internal/snapshot.
func heapItems(cols []MappedCol) []MappedCol {
	for _, c := range cols {
		for i, b := range c.Buckets {
			r := interval.NewBinaryReader(b.Records)
			items := make([]interval.Interval, len(b.Records)/interval.BinaryIntervalSize)
			for j := range items {
				items[j] = interval.Interval{ID: r.I64(), Start: r.I64(), End: r.I64()}
			}
			c.Buckets[i].Items = items
		}
	}
	return cols
}

func TestStoreCodecRoundTrip(t *testing.T) {
	st, ms, _ := codecStore(t, 3, 400, 3)
	buf := st.AppendStore(nil)
	r := interval.NewBinaryReader(buf)
	got, err := readStore(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
	if got.NumCols() != st.NumCols() || got.Intervals() != st.Intervals() {
		t.Fatalf("decoded store shape (%d cols, %d intervals), want (%d, %d)",
			got.NumCols(), got.Intervals(), st.NumCols(), st.Intervals())
	}
	for i := 0; i < st.NumCols(); i++ {
		want, have := st.Col(i), got.Col(i)
		if have.Granulation() != want.Granulation() || have.NumBuckets() != want.NumBuckets() {
			t.Fatalf("col %d: decoded (%+v, %d buckets), want (%+v, %d)",
				i, have.Granulation(), have.NumBuckets(), want.Granulation(), want.NumBuckets())
		}
		for _, b := range ms[i].Buckets() {
			wi := want.BucketItems(b.StartG, b.EndG)
			hi := have.BucketItems(b.StartG, b.EndG)
			if len(wi) != len(hi) {
				t.Fatalf("col %d bucket (%d,%d): %d items decoded, want %d", i, b.StartG, b.EndG, len(hi), len(wi))
			}
			for j := range wi {
				if wi[j] != hi[j] {
					t.Fatalf("col %d bucket (%d,%d) item %d: %v != %v — item order must be preserved for R-tree Ref stability",
						i, b.StartG, b.EndG, j, hi[j], wi[j])
				}
			}
		}
	}
}

// The restored partition must serve the same R-tree point/Ref layout:
// every tree Ref resolves to the identical interval.
func TestStoreCodecRefStability(t *testing.T) {
	st, ms, _ := codecStore(t, 1, 600, 9)
	r := interval.NewBinaryReader(st.AppendStore(nil))
	got, err := readStore(r)
	if err != nil {
		t.Fatal(err)
	}
	cs, rs := st.Col(0), got.Col(0)
	for _, b := range ms[0].Buckets() {
		wantItems := cs.BucketItems(b.StartG, b.EndG)
		tree := rs.BucketTree(b.StartG, b.EndG)
		if tree == nil {
			t.Fatalf("bucket (%d,%d): no tree after restore", b.StartG, b.EndG)
		}
		gotItems := rs.BucketItems(b.StartG, b.EndG)
		n := 0
		tree.Search(rtree.Everything(), func(pt rtree.Point) bool {
			iv := gotItems[pt.Ref]
			if iv != wantItems[pt.Ref] {
				t.Fatalf("bucket (%d,%d) ref %d resolves to %v, want %v", b.StartG, b.EndG, pt.Ref, iv, wantItems[pt.Ref])
			}
			n++
			return true
		})
		if n != len(wantItems) {
			t.Fatalf("bucket (%d,%d): tree indexes %d points, want %d", b.StartG, b.EndG, n, len(wantItems))
		}
	}
	// Restored buckets memoize from scratch: one build per probed bucket.
	if snap := got.Snapshot(); snap.TreesBuilt != int64(len(ms[0].Buckets())) {
		t.Fatalf("restored store built %d trees for %d buckets", snap.TreesBuilt, len(ms[0].Buckets()))
	}
}

func TestStoreCodecRejectsCorruption(t *testing.T) {
	st, _, _ := codecStore(t, 2, 300, 5)
	buf := st.AppendStore(nil)

	for _, cut := range []int{0, 8, len(buf) / 3, len(buf) - 8} {
		if _, err := readStore(interval.NewBinaryReader(buf[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}

	// A directory that lies about its payload: the last entry's count,
	// the word just before the last collection's first record, raised by
	// one reaches past the partition's end. (What the records themselves
	// say is not this walker's rule; the start > end and wrong-bucket
	// cases are in internal/snapshot's TestSnapshotRejectsDamage, against
	// the code that checks them.)
	cols, err := ReadDirectory(interval.NewBinaryReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	last := cols[len(cols)-1].Buckets
	payload := 0
	for _, b := range last {
		payload += len(b.Records)
	}
	bad := append([]byte(nil), buf...)
	interval.PutU64(bad[len(bad)-payload-8:], uint64(len(last[len(last)-1].Records)/interval.BinaryIntervalSize+1))
	if _, err := readStore(interval.NewBinaryReader(bad)); err == nil {
		t.Fatal("bucket count beyond the partition's payload accepted")
	}
}

// The writer sorts each bucket directory by (startG, endG), but the
// reader has never required it: a directory in another order, with its
// payloads in that same order, restores to the same buckets and
// re-encodes to the writer's order. (FuzzReadStore's byte-identity
// assertion is therefore conditional on the input's order.)
func TestReadDirectoryTakesAnyOrder(t *testing.T) {
	seed := fuzzStoreSeed()
	// Collection 0 of the seed: two directory entries from dir, bucket
	// (0,0) with two records, then bucket (1,2) with one.
	const dir = 8 + 8 + 8 + 24 + 8
	const rec = dir + 2*dirEntrySize
	const sz = interval.BinaryIntervalSize
	swapped := slices.Concat(seed[:dir],
		seed[dir+dirEntrySize:rec], seed[dir:dir+dirEntrySize],
		seed[rec+2*sz:rec+3*sz], seed[rec:rec+2*sz],
		seed[rec+3*sz:])
	want, err := readStore(interval.NewBinaryReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readStore(interval.NewBinaryReader(swapped))
	if err != nil {
		t.Fatalf("directory in (1,2), (0,0) order refused: %v", err)
	}
	for _, k := range [][2]int{{0, 0}, {1, 2}} {
		if !slices.Equal(got.Col(0).BucketItems(k[0], k[1]), want.Col(0).BucketItems(k[0], k[1])) {
			t.Fatalf("bucket (%d,%d) differs after the swap", k[0], k[1])
		}
	}
	if !bytes.Equal(got.AppendStore(nil), seed) {
		t.Fatal("the swapped directory does not re-encode to the writer's order")
	}
}
