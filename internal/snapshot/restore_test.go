package snapshot_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/mmapstore"
	"tkij/internal/snapshot"
	"tkij/internal/stats"
	"tkij/internal/store"
)

// restoreBoth runs img through both restore pipelines — the heap one
// (Decode) and the production mapped one (OpenBytes, Verify, Store) —
// and returns each one's store, matrices and verdict.
func restoreBoth(img []byte) (heap, mapped *store.Store, heapMs, mappedMs []*stats.Matrix, heapErr, mappedErr error) {
	heap, heapMs, heapErr = snapshot.Decode(img)
	rd, mappedErr := mmapstore.OpenBytes(img)
	if mappedErr != nil {
		return
	}
	defer rd.Close()
	if mappedErr = rd.Verify(); mappedErr == nil {
		mapped, mappedMs, mappedErr = rd.Store()
	}
	return
}

// mustReject asserts that both pipelines refuse img, in the same words:
// they share the walker, so a rule has one text.
func mustReject(t *testing.T, what string, img []byte) {
	t.Helper()
	heap, mapped, _, _, heapErr, mappedErr := restoreBoth(img)
	if heapErr == nil {
		heap.Close()
		t.Errorf("%s: Decode accepted", what)
	}
	if mappedErr == nil {
		mapped.Close()
		t.Errorf("%s: the mapped pipeline accepted", what)
	}
	if heapErr != nil && mappedErr != nil && heapErr.Error() != mappedErr.Error() {
		t.Errorf("%s: one rule, two texts:\n  heap:   %v\n  mapped: %v", what, heapErr, mappedErr)
	}
}

// sections splits a valid base image's payload into its framed
// sections (kind word and length word included).
func sections(t *testing.T, img []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for off := snapshot.HeaderSize; off < len(img); {
		r := interval.NewBinaryReader(img[off+8 : off+16])
		n := 16 + int(r.U64()+7)/8*8
		out = append(out, img[off:off+n])
		off += n
	}
	return out
}

// assemble frames the given sections behind img's header and reseals
// the result, so it passes the CRC gate and reaches the walker.
func assemble(img []byte, secs ...[]byte) []byte {
	out := slices.Clone(img[:snapshot.HeaderSize])
	for _, s := range secs {
		out = append(out, s...)
	}
	interval.PutU64(out[16:], uint64(len(secs)))
	return snapshot.Reseal(out)
}

// withRecordDamage returns a resealed copy of img after edit has
// rewritten record bytes in place: the parsed ranges alias the copy, the
// framing and every count are untouched, and the checksum is recomputed
// — so the only rule left to refuse the image is the one under test.
func withRecordDamage(t *testing.T, img []byte, edit func(p *snapshot.Image)) []byte {
	t.Helper()
	bad := slices.Clone(img)
	p, err := snapshot.Parse(bad)
	if err != nil {
		t.Fatal(err)
	}
	edit(p)
	return snapshot.Reseal(bad)
}

// startAfterEnd rewrites the record at rec[0:24] to start one past its
// end.
func startAfterEnd(rec []byte) {
	end := interval.NewBinaryReader(rec[16:24]).I64()
	interval.PutU64(rec[8:], uint64(end+1))
}

// Damage must fail loudly on both restore paths — never a partial
// store.
func TestSnapshotRejectsDamage(t *testing.T) {
	st, ms, _ := snapshot.OfflinePhase(t, 2, 250, 5, 77)
	img, err := snapshot.Encode(st, ms)
	if err != nil {
		t.Fatal(err)
	}
	secs := sections(t, img)
	if len(secs) != 2 {
		t.Fatalf("base image has %d sections, want matrices + store", len(secs))
	}
	matrices, storeSec := secs[0], secs[1]

	t.Run("short-header", func(t *testing.T) {
		mustReject(t, "47-byte image", img[:snapshot.HeaderSize-1])
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := slices.Clone(img)
		bad[0] ^= 0xff
		mustReject(t, "bad magic", bad)
	})
	t.Run("version-mismatch", func(t *testing.T) {
		bad := slices.Clone(img)
		interval.PutU64(bad[8:], snapshot.Version+1)
		mustReject(t, "next version", bad)
	})
	t.Run("truncated-payload", func(t *testing.T) {
		for _, cut := range []int{snapshot.HeaderSize, snapshot.HeaderSize + 8, len(img) / 2, len(img) - 1} {
			mustReject(t, "truncation", img[:cut])
		}
	})
	t.Run("flipped-payload-bit", func(t *testing.T) {
		// Every corruption position must trip the checksum (or a deeper
		// validation), wherever it lands.
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			bad := slices.Clone(img)
			pos := snapshot.HeaderSize + rng.Intn(len(img)-snapshot.HeaderSize)
			bad[pos] ^= 1 << uint(rng.Intn(8))
			mustReject(t, "bit flip", bad)
		}
	})
	t.Run("trailing-payload-bytes", func(t *testing.T) {
		// Extra bytes after the declared sections, with header and CRC
		// recomputed to cover them: still all-or-nothing, never ignored.
		mustReject(t, "covered trailing bytes", snapshot.Reseal(append(slices.Clone(img), make([]byte, 16)...)))
	})
	// docs/SNAPSHOT_FORMAT.md: "exactly one matrices section and one
	// store section — in that order". A later copy must not overwrite
	// the earlier one.
	t.Run("repeated-matrices-section", func(t *testing.T) {
		mustReject(t, "matrices, store, matrices", assemble(img, matrices, storeSec, matrices))
	})
	t.Run("repeated-store-section", func(t *testing.T) {
		mustReject(t, "matrices, store, store", assemble(img, matrices, storeSec, storeSec))
	})
	t.Run("store-before-matrices", func(t *testing.T) {
		mustReject(t, "store, matrices", assemble(img, storeSec, matrices))
	})
	// The record rules live in VerifyContent alone. Each image below is
	// structurally perfect and correctly checksummed, so nothing else
	// stands between it and a store that serves wrong buckets.
	t.Run("sealed-record-start-after-end", func(t *testing.T) {
		mustReject(t, "sealed record with start > end", withRecordDamage(t, img, func(p *snapshot.Image) {
			startAfterEnd(p.Cols[0].Buckets[0].Records)
		}))
	})
	t.Run("sealed-record-in-wrong-bucket", func(t *testing.T) {
		// Two valid records trade places across buckets: every count still
		// matches its matrix cell, only re-bucketing can tell.
		mustReject(t, "record moved to another bucket", withRecordDamage(t, img, func(p *snapshot.Image) {
			bs := p.Cols[0].Buckets
			if len(bs) < 2 {
				t.Fatal("collection 0 has one bucket; the case needs two")
			}
			a, b := bs[0].Records[:24], bs[1].Records[:24]
			tmp := slices.Clone(a)
			copy(a, b)
			copy(b, tmp)
		}))
	})
	t.Run("delta-record-start-after-end", func(t *testing.T) {
		mustReject(t, "delta record with start > end", withRecordDamage(t, snapshot.FuzzImageSeed(true), func(p *snapshot.Image) {
			startAfterEnd(p.Deltas[0].Records)
		}))
	})
	t.Run("load-missing-file", func(t *testing.T) {
		absent := filepath.Join(t.TempDir(), "absent.tkij")
		if _, _, err := snapshot.Load(absent); err == nil {
			t.Error("Load accepted")
		}
		if _, err := mmapstore.Open(absent); err == nil {
			t.Error("mmapstore.Open accepted")
		}
	})

	// The rebuilt image is the original when nothing is rearranged, so
	// the three section cases above fail for their order alone.
	if !bytes.Equal(assemble(img, matrices, storeSec), img) {
		t.Fatal("assemble does not reproduce the image it split")
	}
}

// The format pin: testdata/v1-base.snap and v1-delta.snap were written
// by the commit before the single walker existed (Encode, then
// AppendDelta, over fuzzImageSeed's dataset). Both restore paths must
// keep reading them to the same buckets, and Encode must keep writing
// the base byte for byte.
func TestFormatPinFixtures(t *testing.T) {
	type bucket struct {
		col, startG, endG int
		items             []interval.Interval
	}
	base := []bucket{
		{0, 0, 0, []interval.Interval{{ID: 1, Start: 5, End: 30}, {ID: 3, Start: 6, End: 28}}},
		{0, 1, 2, []interval.Interval{{ID: 2, Start: 40, End: 90}}},
		{0, 2, 2, []interval.Interval{{ID: 4, Start: 71, End: 95}}},
		{1, 0, 2, []interval.Interval{{ID: 1, Start: 10, End: 80}, {ID: 2, Start: 11, End: 79}}},
	}
	withDelta := append(slices.Clone(base), bucket{0, 1, 1, []interval.Interval{{ID: 9, Start: 50, End: 60}}})
	for _, c := range []struct {
		file  string
		epoch int64
		want  []bucket
	}{
		{"v1-base.snap", 0, base},
		{"v1-delta.snap", 1, withDelta},
	} {
		img, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		heap, mapped, heapMs, mappedMs, heapErr, mappedErr := restoreBoth(img)
		if heapErr != nil || mappedErr != nil {
			t.Fatalf("%s: heap err %v, mapped err %v", c.file, heapErr, mappedErr)
		}
		for path, r := range map[string]struct {
			st *store.Store
			ms []*stats.Matrix
		}{"heap": {heap, heapMs}, "mapped": {mapped, mappedMs}} {
			total := 0
			for _, b := range c.want {
				if got := r.st.Col(b.col).BucketItems(b.startG, b.endG); !slices.Equal(got, b.items) {
					t.Errorf("%s %s: col %d bucket (%d,%d) = %v, want %v", c.file, path, b.col, b.startG, b.endG, got, b.items)
				}
				if got := r.ms[b.col].Count(b.startG, b.endG); got != len(b.items) {
					t.Errorf("%s %s: matrix %d cell (%d,%d) = %d, want %d", c.file, path, b.col, b.startG, b.endG, got, len(b.items))
				}
				total += len(b.items)
			}
			if r.st.Intervals() != total || r.st.Epoch() != c.epoch {
				t.Errorf("%s %s: %d intervals at epoch %d, want %d at %d", c.file, path, r.st.Intervals(), r.st.Epoch(), total, c.epoch)
			}
			r.st.Close()
		}
	}

	want, err := os.ReadFile(filepath.Join("testdata", "v1-base.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshot.FuzzImageSeed(false); !bytes.Equal(got, want) {
		t.Fatal("Encode no longer writes v1-base.snap byte for byte: the format changed")
	}
}
