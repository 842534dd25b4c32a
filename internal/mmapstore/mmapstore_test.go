package mmapstore_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/mmapstore"
	"tkij/internal/rtree"
	"tkij/internal/snapshot"
	"tkij/internal/stats"
	"tkij/internal/store"
)

// makeImage encodes a small deterministic dataset to a snapshot image,
// optionally extended with delta sections (via a temp file, the only
// delta writer).
func makeImage(t testing.TB, deltas int) []byte {
	return makeScaledImage(t, deltas, 1)
}

// makeScaledImage is makeImage with every interval present copies
// times (under distinct IDs): the same granulation and the same bucket
// directory, copies times the records.
func makeScaledImage(t testing.TB, deltas, copies int) []byte {
	t.Helper()
	cols := []*interval.Collection{{Name: "A"}, {Name: "B"}}
	seeds := []int64{3, 17}
	for i, c := range cols {
		s := seeds[i]
		for j := 0; j < 80; j++ {
			s = (s*48271 + 11) % 1800
			for k := 0; k < copies; k++ {
				c.Add(interval.Interval{ID: int64(k*100000 + i*1000 + j), Start: s, End: s + 40 + s%60})
			}
		}
	}
	ms, _, err := stats.Collect(cols, 5, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(cols, ms)
	if err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Encode(st, ms)
	if err != nil {
		t.Fatal(err)
	}
	if deltas == 0 {
		return img
	}
	path := filepath.Join(t.TempDir(), "img.tkij")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < deltas; d++ {
		batch := []interval.Interval{
			{ID: int64(90000 + d), Start: int64(100 + 37*d), End: int64(300 + 41*d)},
			{ID: int64(91000 + d), Start: int64(-50 * d), End: int64(5000 + 10*d)}, // clamps
		}
		if _, err := snapshot.AppendDelta(path, d%len(cols), batch); err != nil {
			t.Fatal(err)
		}
	}
	img, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// diffStores compares every bucket of the two restored stores
// element-wise (the bucket key universe comes from the replayed
// matrices, which coherence ties to both stores).
func diffStores(t *testing.T, heapSt, mapSt *store.Store, ms []*stats.Matrix) {
	t.Helper()
	if heapSt.Intervals() != mapSt.Intervals() {
		t.Fatalf("interval totals differ: heap %d, mapped %d", heapSt.Intervals(), mapSt.Intervals())
	}
	for i, m := range ms {
		for _, b := range m.Buckets() {
			hi := heapSt.Col(i).BucketItems(b.StartG, b.EndG)
			mi := mapSt.Col(i).BucketItems(b.StartG, b.EndG)
			if !slices.Equal(hi, mi) {
				t.Fatalf("col %d bucket (%d,%d): heap and mapped stores serve different items", i, b.StartG, b.EndG)
			}
		}
	}
}

func TestOpenBytesMatchesHeapDecode(t *testing.T) {
	for _, deltas := range []int{0, 3} {
		img := makeImage(t, deltas)
		heapSt, heapMs, err := snapshot.Decode(img)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := mmapstore.OpenBytes(img)
		if err != nil {
			t.Fatalf("deltas=%d: OpenBytes rejected a valid snapshot: %v", deltas, err)
		}
		if err := rd.Verify(); err != nil {
			t.Fatalf("deltas=%d: Verify rejected a valid snapshot: %v", deltas, err)
		}
		mapSt, _, err := rd.Store()
		if err != nil {
			t.Fatal(err)
		}
		if mapSt.Epoch() != int64(deltas) {
			t.Fatalf("replayed to epoch %d, want %d delta sections", mapSt.Epoch(), deltas)
		}
		diffStores(t, heapSt, mapSt, heapMs)

		// Probe equivalence through the serving interface: both stores
		// index a bucket with the same R-tree over the same items, so the
		// refs come back in the same visit order.
		hview, mview := heapSt.View(), mapSt.View()
		boxes := []rtree.Rect{
			rtree.Everything(),
			{MinX: 100, MaxX: 900, MinY: 0, MaxY: 1200},
			{MinX: -1e18, MaxX: 1e18, MinY: 500, MaxY: 800},
		}
		for i, m := range heapMs {
			for _, b := range m.Buckets() {
				for _, box := range boxes {
					var hv, mv []int32
					hview.Col(i).Bucket(b.StartG, b.EndG).Search(box, func(r int32) bool { hv = append(hv, r); return true })
					mview.Col(i).Bucket(b.StartG, b.EndG).Search(box, func(r int32) bool { mv = append(mv, r); return true })
					if !slices.Equal(hv, mv) {
						t.Fatalf("col %d bucket (%d,%d) box %+v: heap probe %v, mapped probe %v", i, b.StartG, b.EndG, box, hv, mv)
					}
				}
			}
		}
		hview.Release()
		mview.Release()
		mapSt.Close()
		rd.Close()
	}
}

// The mapped buckets must alias the image bytes, not copies: a write
// into a record's byte range must be visible through Items. (On hosts
// where the in-place cast is impossible the reader copies; detect and
// skip.)
func TestZeroCopyAliasing(t *testing.T) {
	img := makeImage(t, 0)
	rd, err := mmapstore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	b := rd.Cols()[0].Buckets[0]
	before := b.Items[0].ID
	// Locate the record: scan the image for the 24-byte triple. The ID
	// word is unique in this dataset.
	off := -1
	for o := 48; o+24 <= len(img); o += 8 {
		if int64(le(img[o:])) == b.Items[0].ID && int64(le(img[o+8:])) == b.Items[0].Start && int64(le(img[o+16:])) == b.Items[0].End {
			off = o
			break
		}
	}
	if off < 0 {
		t.Fatal("bucket record not found in image")
	}
	img[off] ^= 1
	if b.Items[0].ID == before {
		t.Skip("reader decoded a copy (non-little-endian or misaligned host); aliasing not applicable")
	}
	img[off] ^= 1
	if b.Items[0].ID != before {
		t.Fatal("restoring the byte did not restore the record — not a view")
	}
}

func le(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestReaderRefcountLifecycle(t *testing.T) {
	img := makeImage(t, 0)
	rd, err := mmapstore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Live() {
		t.Fatal("fresh reader not live")
	}
	rd.Retain()
	rd.Close()
	rd.Close() // idempotent
	if !rd.Live() {
		t.Fatal("reader died while a reference was held")
	}
	rd.Release()
	if rd.Live() {
		t.Fatal("reader live after the last reference")
	}
	mustPanic(t, "Retain after zero", func() { rd.Retain() })
	mustPanic(t, "Release below zero", func() { rd.Release() })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// Structural damage must fail OpenBytes; content damage (a flipped
// record byte, a stale checksum) must pass the structural open and fail
// Verify — and nothing may panic.
func TestValidationSplit(t *testing.T) {
	img := makeImage(t, 2)

	// Truncations at every granularity: error from OpenBytes or Verify,
	// never a panic or a silent success... except cutting only
	// uncommitted trailing bytes, which the format explicitly tolerates.
	if _, err := mmapstore.OpenBytes(nil); err == nil {
		t.Error("empty image accepted")
	}
	for _, n := range []int{1, 47, 48, 200, len(img) / 2, len(img) - 3} {
		if n >= len(img) {
			continue
		}
		rd, err := mmapstore.OpenBytes(img[:n])
		if err == nil {
			err = rd.Verify()
			rd.Close()
		}
		if err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}

	// Header CRC flipped: structure intact, so the lazy split must open
	// fine and fail only at Verify — the heap decoder rejects outright.
	bad := slices.Clone(img)
	bad[32] ^= 0xFF
	if _, _, err := snapshot.Decode(bad); err == nil {
		t.Fatal("heap decoder accepted a bad checksum")
	}
	rd, err := mmapstore.OpenBytes(bad)
	if err != nil {
		t.Fatalf("structural open rejected a checksum-only corruption: %v", err)
	}
	if err := rd.Verify(); err == nil {
		t.Fatal("Verify accepted a bad checksum")
	}
	if err := rd.Verify(); err == nil { // memoized
		t.Fatal("second Verify disagreed with the first")
	}
	rd.Close()

	// Bad magic and bad version: structural.
	for _, off := range []int{0, 8} {
		bad := slices.Clone(img)
		bad[off] ^= 0xFF
		if _, err := mmapstore.OpenBytes(bad); err == nil {
			t.Errorf("corrupted header byte %d accepted", off)
		}
	}
}

// Restore cost is governed by the bucket directory, not the dataset:
// opening an image with ten times the records behind the same directory
// allocates the same number of objects (no interval is decoded or
// copied on the open path).
func TestOpenAllocsIndependentOfIntervals(t *testing.T) {
	small, large := makeScaledImage(t, 0, 1), makeScaledImage(t, 0, 10)
	if len(large) < 5*len(small) {
		t.Fatalf("images of %d and %d bytes: the large one is not ~10x the records", len(small), len(large))
	}
	allocs := func(img []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			rd, err := mmapstore.OpenBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			rd.Close()
		})
	}
	if a, b := allocs(small), allocs(large); a-b > 2 || b-a > 2 {
		t.Fatalf("OpenBytes allocates %v objects at 1x the intervals and %v at 10x; want the same (±2)", a, b)
	}
}

// Open (the file-backed entry point) must serve the same data as
// OpenBytes, and release its mapping with the last reference.
func TestOpenFile(t *testing.T) {
	img := makeImage(t, 1)
	path := filepath.Join(t.TempDir(), "snap.tkij")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := mmapstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Verify(); err != nil {
		t.Fatal(err)
	}
	ref, err := mmapstore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rd.Cols() {
		for j, b := range c.Buckets {
			if !slices.Equal(b.Items, ref.Cols()[i].Buckets[j].Items) {
				t.Fatalf("col %d bucket %d differs between file and bytes readers", i, j)
			}
		}
	}
	ref.Close()
	rd.Close()
	if rd.Live() {
		t.Fatal("mapping still referenced after Close")
	}

	if _, err := mmapstore.Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

// Err surfaces a background verification failure without any
// synchronous Verify call.
func TestVerifyAsyncPublishesError(t *testing.T) {
	img := makeImage(t, 0)
	img[32] ^= 0xFF // checksum
	rd, err := mmapstore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Err() != nil {
		t.Fatal("Err set before verification ran")
	}
	rd.VerifyAsync()
	// Verify is memoized: a synchronous call joins the same outcome.
	if err := rd.Verify(); err == nil {
		t.Fatal("Verify accepted a bad checksum")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rd.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rd.Err() == nil {
		t.Fatal("background verification failure never published")
	}
}
