package core

import (
	"context"
	"path/filepath"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/snapshot"
)

// The acceptance contract of the snapshot subsystem: an engine restored
// with OpenEngine answers its first query with zero statistics work —
// no statistics job, no store partitioning — and returns the same
// top-k score multiset as the engine that computed the offline phase,
// on every example query of the catalog.
func TestOpenEngineServesEveryExampleQuery(t *testing.T) {
	cols := synthCols(3, 150, 41)
	opts := Options{Granules: 6, K: 12, Reducers: 4}
	built, err := NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenEngine(cols, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Restored() {
		t.Fatal("Restored() = false for a snapshot-opened engine")
	}
	if restored.StatsMetrics != nil {
		t.Fatal("restored engine reports a statistics job — the snapshot should have replaced it")
	}
	if restored.StatsDuration <= 0 {
		t.Fatal("restore time not recorded in StatsDuration")
	}
	if restored.StoreBuildDuration != 0 {
		t.Fatal("restored engine reports a store build")
	}
	st := restored.Store()
	if st == nil || st.Intervals() != built.Store().Intervals() {
		t.Fatal("restored store missing or incomplete")
	}
	// Trees are memoized on demand, not during restore.
	if snap := st.Snapshot(); snap.TreesBuilt != 0 {
		t.Fatalf("restore eagerly built %d R-trees", snap.TreesBuilt)
	}

	env := query.Env{Params: scoring.P1, Avg: interval.AvgLength(cols...)}
	queries := []*query.Query{
		query.Qbb(env), query.Qff(env), query.Qoo(env), query.Qss(env),
		query.Qsfm(env), query.Qfb(env), query.Qom(env), query.Qsm(env),
		query.QjBjB(env),
	}
	for _, q := range queries {
		want, err := built.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s on built engine: %v", q.Name, err)
		}
		got, err := restored.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s on restored engine: %v", q.Name, err)
		}
		if !join.ScoreMultisetEqual(got.Results, want.Results, 1e-9) {
			t.Fatalf("query %s: restored engine diverged from built engine", q.Name)
		}
	}
	// Execute must not have silently re-run the offline phase.
	if restored.StatsMetrics != nil {
		t.Fatal("restored engine re-ran the statistics job during Execute")
	}
}

// Streaming ingest round trip through the snapshot file: every live
// Append is mirrored as an appended delta section, and OpenEngine must
// restore base + deltas into an engine indistinguishable from the live
// one — same epoch, zero statistics work, identical answers.
func TestOpenEngineRestoresDeltas(t *testing.T) {
	cols := synthCols(3, 120, 83)
	opts := Options{Granules: 6, K: 10, Reducers: 4}
	live, err := NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := live.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	batches := []struct {
		col int
		ivs []interval.Interval
	}{
		{0, []interval.Interval{{ID: 930001, Start: 500, End: 600}, {ID: 930002, Start: 3500, End: 3900}}},
		{2, []interval.Interval{{ID: 950001, Start: 510, End: 620}}},
		{1, []interval.Interval{{ID: 940001, Start: 505, End: 610}, {ID: 940002, Start: 5000, End: 5200}}}, // clamps beyond the span
	}
	for i, b := range batches {
		epoch, err := live.Append(b.col, b.ivs)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != int64(i+1) {
			t.Fatalf("live append %d at epoch %d", i, epoch)
		}
		fileEpoch, err := snapshot.AppendDelta(path, b.col, b.ivs)
		if err != nil {
			t.Fatal(err)
		}
		if fileEpoch != epoch {
			t.Fatalf("file delta recorded epoch %d, live at %d", fileEpoch, epoch)
		}
	}

	// live.Append extended cols in place, so they are the post-ingest
	// dataset the snapshot now describes.
	restored, err := OpenEngine(cols, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Restored() || restored.StatsMetrics != nil {
		t.Fatal("restored engine ran the statistics job")
	}
	if restored.Epoch() != int64(len(batches)) {
		t.Fatalf("restored engine at epoch %d, want %d", restored.Epoch(), len(batches))
	}
	env := query.Env{Params: scoring.P1, Avg: interval.AvgLength(cols...)}
	for _, q := range []*query.Query{query.Qbb(env), query.Qom(env), query.Qss(env)} {
		want, err := live.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !join.ScoreMultisetEqual(got.Results, want.Results, 1e-9) {
			t.Fatalf("query %s: restored-with-deltas engine diverged from the live engine", q.Name)
		}
		if got.Epoch != int64(len(batches)) {
			t.Fatalf("query %s pinned epoch %d on the restored engine", q.Name, got.Epoch)
		}
	}
	if restored.StatsMetrics != nil {
		t.Fatal("restored engine re-ran the statistics job during Execute")
	}
}

func TestOpenEngineValidatesDataset(t *testing.T) {
	cols := synthCols(3, 80, 17)
	path := filepath.Join(t.TempDir(), "stats.tkij")
	built, err := NewEngine(cols, Options{Granules: 5, K: 5, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenEngine(cols[:2], path, Options{}); err == nil {
		t.Error("snapshot accepted for the wrong number of collections")
	}
	shrunk := []*interval.Collection{cols[0], cols[1], {Name: "C", Items: cols[2].Items[:40]}}
	if _, err := OpenEngine(shrunk, path, Options{}); err == nil {
		t.Error("snapshot accepted for a dataset of a different size")
	}
	if _, err := OpenEngine(cols, filepath.Join(t.TempDir(), "absent.tkij"), Options{}); err == nil {
		t.Error("missing snapshot file accepted")
	}

	// The snapshot's granulation wins over a conflicting option, and
	// Options() must report the g actually in effect.
	e, err := OpenEngine(cols, path, Options{Granules: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Options().Granules; got != 5 {
		t.Errorf("Options().Granules = %d after restoring a g=5 snapshot", got)
	}
}

// A restored engine keeps the full serving contract: warm executions
// reuse memoized trees.
func TestOpenEngineWarmPath(t *testing.T) {
	cols := synthCols(3, 120, 23)
	opts := Options{Granules: 6, K: 10, Reducers: 4}
	built, err := NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenEngine(cols, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Qom(query.Env{Params: scoring.P1})
	first, err := restored.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := restored.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.TreesBuilt == 0 {
		t.Fatal("first restored query built no trees — nothing was exercised")
	}
	if second.TreesBuilt != 0 || second.TreesReused == 0 {
		t.Fatalf("second restored query built %d trees, reused %d; want 0 and >0", second.TreesBuilt, second.TreesReused)
	}
}
