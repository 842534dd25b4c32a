package snapshot

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/stats"
	"tkij/internal/store"
)

func offlinePhase(t *testing.T, nCols, perCol int, g int, seed int64) (*store.Store, []*stats.Matrix, []*interval.Collection) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, nCols)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(4000)
			c.Add(interval.Interval{ID: int64(i*1000000 + j), Start: s, End: s + rng.Int63n(700)})
		}
		cols[i] = c
	}
	ms, _, err := stats.Collect(cols, g, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(cols, ms)
	if err != nil {
		t.Fatal(err)
	}
	return st, ms, cols
}

// Property-style round trip over several random datasets: the decoded
// snapshot must preserve matrix cells and totals, bucket contents, and
// per-bucket item order.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st, ms, _ := offlinePhase(t, 2+int(seed%2), 200+int(seed)*37, 4+int(seed), seed)
		img, err := Encode(st, ms)
		if err != nil {
			t.Fatal(err)
		}
		gotStore, gotMs, err := Decode(img)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(gotMs) != len(ms) || gotStore.NumCols() != st.NumCols() || gotStore.Intervals() != st.Intervals() {
			t.Fatalf("seed %d: decoded shape mismatch", seed)
		}
		for i, m := range ms {
			gm := gotMs[i]
			if gm.Col != m.Col || gm.Gran != m.Gran || gm.Total() != m.Total() {
				t.Fatalf("seed %d: matrix %d header mismatch", seed, i)
			}
			for l := range m.Counts {
				for lp := range m.Counts[l] {
					if gm.Counts[l][lp] != m.Counts[l][lp] {
						t.Fatalf("seed %d: matrix %d cell [%d][%d] mismatch", seed, i, l, lp)
					}
				}
			}
			for _, b := range m.Buckets() {
				want := st.Col(i).BucketItems(b.StartG, b.EndG)
				got := gotStore.Col(i).BucketItems(b.StartG, b.EndG)
				if len(want) != len(got) {
					t.Fatalf("seed %d: col %d bucket (%d,%d) size mismatch", seed, i, b.StartG, b.EndG)
				}
				for j := range want {
					if want[j] != got[j] {
						t.Fatalf("seed %d: col %d bucket (%d,%d) item %d reordered", seed, i, b.StartG, b.EndG, j)
					}
				}
			}
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	st, ms, _ := offlinePhase(t, 3, 300, 6, 42)
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := Save(path, st, ms); err != nil {
		t.Fatal(err)
	}
	gotStore, gotMs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotStore.Intervals() != st.Intervals() || len(gotMs) != len(ms) {
		t.Fatal("file round trip lost data")
	}
	// Snapshots are shared dataset artifacts: the temp file's private
	// mode must not survive the rename.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("snapshot file mode %v, want 0644", fi.Mode().Perm())
	}
}

// A store that disagrees with its matrices (a matrix grown by
// stats.ApplyUpdate while the store was not appended to) must be
// refused at save time — not persisted into a file only restore can
// reject.
func TestEncodeRefusesStaleStore(t *testing.T) {
	st, ms, _ := offlinePhase(t, 2, 150, 5, 3)
	if err := stats.ApplyUpdate(ms[0], []interval.Interval{{ID: 999, Start: 100, End: 200}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(st, ms); err == nil {
		t.Fatal("encoded a snapshot whose store no longer matches its matrices")
	}
}

// Save must be atomic: a pre-existing file at the target path survives
// an encode failure, and a successful save replaces it completely.
func TestSaveReplacesAtomically(t *testing.T) {
	st, ms, _ := offlinePhase(t, 2, 100, 4, 5)
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := os.WriteFile(path, []byte("old junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, st, ms); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err != nil {
		t.Fatalf("replaced file does not load: %v", err)
	}
	if err := Save(path, nil, nil); err == nil {
		t.Fatal("empty save accepted")
	}
	if _, _, err := Load(path); err != nil {
		t.Fatalf("failed save clobbered the previous snapshot: %v", err)
	}
}
