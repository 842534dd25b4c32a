package mmapstore_test

import (
	"slices"
	"testing"

	"tkij/internal/mmapstore"
	"tkij/internal/snapshot"
)

// FuzzMmapRead drives arbitrary bytes through both consumers of the
// shared walker — the production mapped pipeline (OpenBytes, Verify,
// Reader.Store: view in place, replay) and the heap one
// (snapshot.Decode: copy, replay) — and holds them to one
// contract:
//
//   - no input may panic or fault — truncated, corrupted, misaligned,
//     or hostile section bytes all return errors;
//   - the acceptance sets must match exactly: the mapped pipeline
//     succeeds if and only if snapshot.Decode succeeds;
//   - on accepted inputs, every restored bucket must serve byte-for-byte
//     the same intervals from the mapping as the heap decode built on
//     the heap, after replaying the same delta sections.
func FuzzMmapRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("TKIJSNAP but not really a snapshot at all......."))
	base := makeImage(f, 0)
	f.Add(base)
	f.Add(makeImage(f, 3))
	f.Add(base[:len(base)/2])
	f.Add(append(slices.Clone(base), 0, 0, 0, 0, 0, 0, 0, 0)) // trailing uncommitted bytes
	crc := slices.Clone(base)
	crc[32] ^= 0xFF
	f.Add(crc)
	if len(base) > 200 {
		mid := slices.Clone(base)
		mid[200] ^= 0x10 // payload content corruption
		f.Add(mid)
	}

	f.Fuzz(func(t *testing.T, img []byte) {
		heapSt, heapMs, heapErr := snapshot.Decode(img)

		var mapErr error
		rd, mapErr := mmapstore.OpenBytes(slices.Clone(img))
		if mapErr == nil {
			mapErr = rd.Verify()
			if mapErr == nil {
				mapSt, _, err := rd.Store()
				mapErr = err
				if err == nil {
					if heapErr != nil {
						t.Fatalf("mapped pipeline accepted an image the heap decoder rejects: %v", heapErr)
					}
					diffStores(t, heapSt, mapSt, heapMs)
					mapSt.Close()
				}
			}
			rd.Close()
		}
		if (heapErr == nil) != (mapErr == nil) {
			t.Fatalf("acceptance mismatch: heap err=%v, mapped err=%v", heapErr, mapErr)
		}
	})
}
