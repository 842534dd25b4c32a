package snapshot

import (
	"bytes"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"tkij/internal/interval"
)

// AppendDelta must extend a snapshot file in place (base sections
// untouched) such that Load replays the deltas onto store and matrices
// exactly as a live engine would have applied them.
func TestAppendDeltaRoundTrip(t *testing.T) {
	st, ms, cols := offlinePhase(t, 2, 120, 5, 71)
	path := filepath.Join(t.TempDir(), "s.tkij")
	if err := Save(path, st, ms); err != nil {
		t.Fatal(err)
	}

	batches := []struct {
		col int
		ivs []interval.Interval
	}{
		{0, []interval.Interval{{ID: 910001, Start: 100, End: 300}, {ID: 910002, Start: 4100, End: 4500}}}, // beyond the span: clamps
		{1, []interval.Interval{{ID: 920001, Start: 50, End: 90}}},
		{0, []interval.Interval{{ID: 910003, Start: 2000, End: 2100}}},
	}
	for i, b := range batches {
		epoch, err := AppendDelta(path, b.col, b.ivs)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if epoch != int64(i+1) {
			t.Fatalf("delta %d recorded as epoch %d", i, epoch)
		}
		// Mirror the batch on the live store + matrices + collections.
		if _, err := st.Append(b.col, b.ivs); err != nil {
			t.Fatal(err)
		}
		for _, iv := range b.ivs {
			ms[b.col].Add(iv)
			cols[b.col].Add(iv)
		}
	}

	got, gotMs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 3 {
		t.Fatalf("restored store at epoch %d, want 3", got.Epoch())
	}
	if got.Intervals() != st.Intervals() {
		t.Fatalf("restored store holds %d intervals, live holds %d", got.Intervals(), st.Intervals())
	}
	for i, m := range gotMs {
		if m.Total() != ms[i].Total() {
			t.Fatalf("matrix %d total %d, live %d", i, m.Total(), ms[i].Total())
		}
		for _, b := range ms[i].Buckets() {
			if got := m.Count(b.StartG, b.EndG); got != b.Count {
				t.Fatalf("matrix %d bucket (%d,%d): restored %d, live %d", i, b.StartG, b.EndG, got, b.Count)
			}
		}
		// Every bucket's items must match the live store's, in order —
		// the replay path is the live Append path.
		for _, b := range m.Buckets() {
			live := st.Col(i).BucketItems(b.StartG, b.EndG)
			rest := got.Col(i).BucketItems(b.StartG, b.EndG)
			if len(live) != len(rest) {
				t.Fatalf("col %d bucket (%d,%d): %d restored items, %d live", i, b.StartG, b.EndG, len(rest), len(live))
			}
			for j := range live {
				if live[j] != rest[j] {
					t.Fatalf("col %d bucket (%d,%d) item %d: %v restored, %v live", i, b.StartG, b.EndG, j, rest[j], live[j])
				}
			}
		}
	}
}

func TestAppendDeltaValidation(t *testing.T) {
	st, ms, _ := offlinePhase(t, 2, 60, 4, 73)
	path := filepath.Join(t.TempDir(), "s.tkij")
	if err := Save(path, st, ms); err != nil {
		t.Fatal(err)
	}
	ok := []interval.Interval{{ID: 1, Start: 10, End: 20}}
	if _, err := AppendDelta(path, 0, nil); err == nil {
		t.Error("empty delta accepted")
	}
	if _, err := AppendDelta(path, 2, ok); err == nil {
		t.Error("delta for an out-of-range collection accepted")
	}
	if _, err := AppendDelta(path, 0, []interval.Interval{{ID: 1, Start: 20, End: 10}}); err == nil {
		t.Error("invalid interval accepted")
	}
	if _, err := AppendDelta(filepath.Join(t.TempDir(), "absent.tkij"), 0, ok); err == nil {
		t.Error("missing file accepted")
	}
}

// AppendDelta commits the header only after the section bytes are on
// disk, so a crash in between leaves trailing bytes the header does
// not cover: the file must still load as its previous state, and the
// next AppendDelta must overwrite the leftovers.
func TestAppendDeltaCrashWindow(t *testing.T) {
	st, ms, _ := offlinePhase(t, 2, 80, 4, 77)
	path := filepath.Join(t.TempDir(), "s.tkij")
	if err := Save(path, st, ms); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: section bytes written, header not
	// committed.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial delta section torn mid-write")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, _, err := Load(path)
	if err != nil {
		t.Fatalf("snapshot with uncommitted trailing bytes must load its previous state: %v", err)
	}
	if got.Epoch() != 0 {
		t.Fatalf("pre-crash state restored at epoch %d, want 0", got.Epoch())
	}
	// Retrying the append must reclaim the trailing bytes and commit.
	if _, err := AppendDelta(path, 1, []interval.Interval{{ID: 7, Start: 40, End: 80}}); err != nil {
		t.Fatal(err)
	}
	got, gotMs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 1 || gotMs[1].Total() != 81 {
		t.Fatalf("post-retry state: epoch %d, col-1 total %d; want 1 and 81", got.Epoch(), gotMs[1].Total())
	}
}

// A delta can only extend a snapshot that validates structurally, and a
// structurally broken delta sequence must be rejected at load.
func TestDeltaSectionDamage(t *testing.T) {
	st, ms, _ := offlinePhase(t, 1, 80, 4, 79)
	base, err := Encode(st, ms)
	if err != nil {
		t.Fatal(err)
	}
	ivs := []interval.Interval{{ID: 5, Start: 30, End: 60}}

	// Helper: append a raw delta section with a chosen epoch and fix the
	// header so only the targeted damage remains.
	withDelta := func(img []byte, epoch uint64) []byte {
		out := append([]byte(nil), img...)
		var body []byte
		body = interval.AppendU64(body, epoch)
		body = interval.AppendI64(body, 0)
		body = interval.AppendU64(body, uint64(len(ivs)))
		body = interval.AppendIntervals(body, ivs)
		out = appendSection(out, sectionDelta, body)
		hdr := interval.NewBinaryReader(out[16:24])
		interval.PutU64(out[16:], hdr.U64()+1)
		interval.PutU64(out[24:], uint64(len(out)-headerSize))
		interval.PutU64(out[32:], crc64.Checksum(out[headerSize:], crcTable))
		return out
	}

	if _, _, err := Decode(withDelta(base, 1)); err != nil {
		t.Fatalf("well-formed delta rejected: %v", err)
	}
	if _, _, err := Decode(withDelta(base, 2)); err == nil {
		t.Error("out-of-order delta epoch accepted")
	}
	if _, _, err := Decode(withDelta(withDelta(base, 1), 1)); err == nil {
		t.Error("repeated delta epoch accepted")
	}

	// A delta ahead of the base sections is structural corruption.
	var lead []byte
	lead = append(lead, base[:headerSize]...)
	var body []byte
	body = interval.AppendU64(body, 1)
	body = interval.AppendI64(body, 0)
	body = interval.AppendU64(body, uint64(len(ivs)))
	body = interval.AppendIntervals(body, ivs)
	lead = appendSection(lead, sectionDelta, body)
	lead = append(lead, base[headerSize:]...)
	hdr := interval.NewBinaryReader(lead[16:24])
	interval.PutU64(lead[16:], hdr.U64()+1)
	interval.PutU64(lead[24:], uint64(len(lead)-headerSize))
	interval.PutU64(lead[32:], crc64.Checksum(lead[headerSize:], crcTable))
	if _, _, err := Decode(lead); err == nil {
		t.Error("delta section ahead of the base sections accepted")
	}
}

// AppendDelta runs the same structural walk as Load, so a file Load
// refuses is refused before a byte of it is written — not extended,
// and not re-committed under a fresh header.
func TestAppendDeltaRefusesWhatLoadRefuses(t *testing.T) {
	st, ms, _ := offlinePhase(t, 2, 60, 4, 83)
	base, err := Encode(st, ms)
	if err != nil {
		t.Fatal(err)
	}
	ivs := []interval.Interval{{ID: 5, Start: 30, End: 60}}
	storeAt := headerSize + 16 + int(interval.NewBinaryReader(base[headerSize+8:]).U64())

	// matrices, delta, store: a delta ahead of the store section.
	var body []byte
	body = interval.AppendU64(body, 1)
	body = interval.AppendI64(body, 0)
	body = interval.AppendU64(body, uint64(len(ivs)))
	body = interval.AppendIntervals(body, ivs)
	misplaced := appendSection(append([]byte(nil), base[:storeAt]...), sectionDelta, body)
	misplaced = append(misplaced, base[storeAt:]...)
	interval.PutU64(misplaced[16:], 3)

	// A matrices section declaring more matrices than its body holds.
	overcount := append([]byte(nil), base...)
	interval.PutU64(overcount[headerSize+16:], 1<<40)

	for name, img := range map[string][]byte{"delta-before-store": reseal(misplaced), "matrix-overcount": reseal(overcount)} {
		path := filepath.Join(t.TempDir(), name+".tkij")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(path); err == nil {
			t.Fatalf("%s: Load accepted the image", name)
		}
		if _, err := AppendDelta(path, 0, ivs); err == nil {
			t.Errorf("%s: AppendDelta extended a file Load refuses", name)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, img) {
			t.Errorf("%s: the refused AppendDelta changed the file", name)
		}
	}
}
