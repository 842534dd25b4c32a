package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/snapshot"
)

// exampleQueries is the catalog the equivalence tests sweep: every
// predicate family the paper's experiments use, so mapped buckets are
// probed with overlap, before and after boxes alike.
func exampleQueries(cols []*interval.Collection) []*query.Query {
	env := query.Env{Params: scoring.P1, Avg: interval.AvgLength(cols...)}
	return []*query.Query{
		query.Qbb(env), query.Qff(env), query.Qoo(env), query.Qss(env),
		query.Qsfm(env), query.Qfb(env), query.Qom(env), query.Qsm(env),
		query.QjBjB(env),
	}
}

// The zero-copy acceptance contract: an engine restored with
// Options.Mmap answers every example query with the same top-k tuples,
// in the same order, as both the engine that computed the offline phase
// and a heap-restored engine — before and after interleaved appends — while
// serving sealed buckets in place through lazily built R-trees, with no
// store materialization at open.
func TestOpenEngineMmapEquivalence(t *testing.T) {
	const (
		nCols  = 3
		perCol = 150
		seed   = 77
	)
	opts := Options{Granules: 6, K: 12, Reducers: 4}
	built, err := NewEngine(synthCols(nCols, perCol, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// Each engine owns its collections (Append extends them in place);
	// the deterministic seed makes the three datasets identical.
	heap, err := OpenEngine(synthCols(nCols, perCol, seed), path, opts)
	if err != nil {
		t.Fatal(err)
	}
	mmOpts := opts
	mmOpts.Mmap = true
	mm, err := OpenEngine(synthCols(nCols, perCol, seed), path, mmOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()

	if !mm.Mapped() {
		t.Fatal("Mapped() = false for an Options.Mmap restore")
	}
	if heap.Mapped() || built.Mapped() {
		t.Fatal("Mapped() = true for a heap engine")
	}
	if !mm.Restored() || mm.StatsMetrics != nil {
		t.Fatal("mapped restore ran the statistics job")
	}
	if mm.StoreBuildDuration != 0 {
		t.Fatal("mapped restore reports a store build — the partition should be served from the mapping")
	}
	// Zero-copy means zero store materialization at open: the mapped
	// store exists but holds no sealed index yet; queries build its
	// R-trees lazily, as on every other store.
	if snap := mm.Store().Snapshot(); snap.TreesBuilt != 0 || snap.DeltaTreesBuilt != 0 {
		t.Fatalf("open materialized indexes: %d trees, %d delta trees", snap.TreesBuilt, snap.DeltaTreesBuilt)
	}

	queries := exampleQueries(built.Collections())
	for _, q := range queries {
		want, err := built.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s on built engine: %v", q.Name, err)
		}
		hgot, err := heap.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s on heap-restored engine: %v", q.Name, err)
		}
		mgot, err := mm.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s on mapped engine: %v", q.Name, err)
		}
		if !reflect.DeepEqual(hgot.Results, want.Results) {
			t.Fatalf("query %s: heap-restored engine diverged from built engine", q.Name)
		}
		if !reflect.DeepEqual(mgot.Results, want.Results) {
			t.Fatalf("query %s: mapped engine diverged from built engine", q.Name)
		}
	}
	if snap := mm.Store().Snapshot(); snap.TreesBuilt == 0 || snap.DeltaTreesBuilt != 0 {
		t.Fatalf("mapped engine built %d sealed and %d delta R-trees; its sealed probes must go through memoized R-trees",
			snap.TreesBuilt, snap.DeltaTreesBuilt)
	}

	// Interleave identical appends into all three engines; answers must
	// stay indistinguishable. (Fresh buckets born from a batch are heap
	// buckets even on a mapped engine, so tree counters are free to move
	// from here on.)
	batches := []struct {
		col int
		ivs []interval.Interval
	}{
		{0, []interval.Interval{{ID: 910001, Start: 400, End: 520}, {ID: 910002, Start: 2600, End: 2800}}},
		{2, []interval.Interval{{ID: 930001, Start: 410, End: 540}}},
		{1, []interval.Interval{{ID: 920001, Start: 405, End: 530}, {ID: 920002, Start: 9000, End: 9100}}}, // clamps beyond the span
	}
	for bi, b := range batches {
		for _, e := range []*Engine{built, heap, mm} {
			if _, err := e.Append(b.col, b.ivs); err != nil {
				t.Fatalf("append batch %d: %v", bi, err)
			}
		}
		for _, q := range []*query.Query{queries[0], queries[6], queries[3]} {
			want, err := built.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			mgot, err := mm.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mgot.Results, want.Results) {
				t.Fatalf("query %s after batch %d: mapped engine diverged from built engine", q.Name, bi)
			}
			if mgot.Epoch != int64(bi+1) {
				t.Fatalf("query %s pinned epoch %d after batch %d", q.Name, mgot.Epoch, bi)
			}
		}
	}
	if mm.Epoch() != int64(len(batches)) {
		t.Fatalf("mapped engine at epoch %d after %d batches", mm.Epoch(), len(batches))
	}

	t.Run("ties", testRestorePathsAgreeOnTies)
}

// testRestorePathsAgreeOnTies is the tie-heavy case: Qb,b over small
// collections scores many tuples equal at the k-th place, so which tied
// tuples survive depends on the order candidates are enumerated in (see
// join.TopK.Add). Every restore path indexes a bucket with the same
// R-tree over the same item order and runs the same plan, so the built
// engine, a heap restore, an mmap restore and a 3-shard engine over the
// mmap restore must return identical tuples, not merely equal scores.
func testRestorePathsAgreeOnTies(t *testing.T) {
	const (
		nCols  = 3
		perCol = 80
		seeds  = 20
	)
	opts := Options{Granules: 6, K: 6, Reducers: 4}
	mmOpts := opts
	mmOpts.Mmap = true
	shOpts := mmOpts
	shOpts.Shards = 3
	for seed := int64(1); seed <= seeds; seed++ {
		built, err := NewEngine(synthCols(nCols, perCol, seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ties.tkij")
		if err := built.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		q := query.Qbb(query.Env{Params: scoring.P1, Avg: interval.AvgLength(built.Collections()...)})
		want, err := built.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			opts Options
		}{{"heap-restored", opts}, {"mapped", mmOpts}, {"sharded mapped", shOpts}} {
			e, err := OpenEngine(synthCols(nCols, perCol, seed), path, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Execute(context.Background(), q)
			e.Close()
			if err != nil {
				t.Fatalf("seed %d, %s engine: %v", seed, c.name, err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Errorf("seed %d: %s engine returned other tuples than the built engine\n got:  %v\n want: %v",
					seed, c.name, got.Results, want.Results)
			}
		}
	}
}

// A snapshot file that grew delta sections after the base image restores
// through the mapped path too: the deltas are replayed onto the mapped
// base exactly as the heap decoder replays them.
func TestOpenEngineMmapRestoresDeltas(t *testing.T) {
	const (
		nCols  = 3
		perCol = 120
		seed   = 83
	)
	opts := Options{Granules: 6, K: 10, Reducers: 4}
	live, err := NewEngine(synthCols(nCols, perCol, seed), opts)
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
		{0, []interval.Interval{{ID: 930001, Start: 500, End: 600}, {ID: 930002, Start: 2500, End: 2900}}},
		{2, []interval.Interval{{ID: 950001, Start: 510, End: 620}}},
	}
	for _, b := range batches {
		if _, err := live.Append(b.col, b.ivs); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.AppendDelta(path, b.col, b.ivs); err != nil {
			t.Fatal(err)
		}
	}

	cols := synthCols(nCols, perCol, seed)
	for _, b := range batches {
		cols[b.col].Items = append(cols[b.col].Items, b.ivs...)
	}
	mmOpts := opts
	mmOpts.Mmap = true
	mm, err := OpenEngine(cols, path, mmOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !mm.Mapped() || mm.Epoch() != int64(len(batches)) {
		t.Fatalf("mapped restore: Mapped()=%v, epoch=%d, want true, %d", mm.Mapped(), mm.Epoch(), len(batches))
	}
	for _, q := range exampleQueries(live.Collections()) {
		want, err := live.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mm.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !join.ScoreMultisetEqual(got.Results, want.Results, 1e-9) {
			t.Fatalf("query %s: mapped-with-deltas engine diverged from the live engine", q.Name)
		}
	}
}

// The deferred-verification contract: a file whose structure is intact
// but whose content checksum is wrong opens fine in mmap mode (the
// O(dataset) checks run in the background) and then fails query
// admission once the verifier finds the damage — it never keeps serving
// a snapshot it knows is corrupt. The heap path, which checksums
// eagerly, must reject the same file at open.
func TestOpenEngineMmapVerifyFailureGates(t *testing.T) {
	cols := synthCols(3, 100, 19)
	opts := Options{Granules: 5, K: 8, Reducers: 2}
	built, err := NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[32] ^= 0xFF // header checksum byte: structure intact, content check must fail
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenEngine(synthCols(3, 100, 19), path, opts); err == nil {
		t.Fatal("heap restore accepted a corrupted checksum")
	}

	mmOpts := opts
	mmOpts.Mmap = true
	mm, err := OpenEngine(synthCols(3, 100, 19), path, mmOpts)
	if err != nil {
		t.Fatalf("mapped open must defer the checksum to the background verifier, got %v", err)
	}
	defer mm.Close()

	q := exampleQueries(cols)[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := mm.Execute(context.Background(), q)
		if err != nil {
			if !strings.Contains(err.Error(), "failed verification") {
				t.Fatalf("admission failed with the wrong error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background verifier never failed admission on a corrupted snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	// The refusal is permanent, not a one-shot.
	if _, err := mm.Execute(context.Background(), q); err == nil {
		t.Fatal("engine served a query after verification failed")
	}
	if err := mm.PrepareStats(); err == nil {
		t.Fatal("PrepareStats succeeded after verification failed")
	}

	// Structural damage, unlike a stale checksum, is refused at open on
	// both paths — by the one walker, so `tkijrun -load-stats` prints
	// the same rule text with and without -mmap.
	img[32] ^= 0xFF // the checksum is good again
	img[8] ^= 0xFF  // format version
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, heapErr := OpenEngine(cols, path, opts)
	_, mmErr := OpenEngine(cols, path, mmOpts)
	if heapErr == nil || mmErr == nil || heapErr.Error() != mmErr.Error() {
		t.Fatalf("structural damage must be refused in the same words:\n  heap:   %v\n  mapped: %v", heapErr, mmErr)
	}
	if !strings.HasPrefix(heapErr.Error(), "snapshot: format version") || !strings.Contains(heapErr.Error(), path) {
		t.Fatalf("refusal does not name the rule and the file once: %v", heapErr)
	}
}

// Refcounted unmap under live pins: a mapped engine is closed while
// four pinned views are still open, and each pin then executes from
// its own goroutine. The pins' references must keep the mapping alive
// until they release, so every answer equals the built engine's, rank
// by rank, and the race detector stays quiet. Exercised under -race in
// CI.
func TestMmapUnmapRace(t *testing.T) {
	cols := synthCols(3, 120, 59)
	opts := Options{Granules: 6, K: 10, Reducers: 4}
	built, err := NewEngine(synthCols(3, 120, 59), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.tkij")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	mmOpts := opts
	mmOpts.Mmap = true
	mm, err := OpenEngine(cols, path, mmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Mapped() {
		t.Fatal("mapped restore does not report Mapped()")
	}
	queries := exampleQueries(cols)

	const workers = 4
	pins := make([]*Pin, workers)
	for w := range pins {
		if pins[w], err = mm.Pin(); err != nil {
			t.Fatal(err)
		}
	}
	mm.Close()
	mm.Close() // idempotent

	results := make([]*Report, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range pins {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := queries[w%len(queries)]
			mapping := make([]int, q.NumVertices)
			for v := range mapping {
				mapping[v] = v
			}
			results[w], errs[w] = mm.ExecutePinned(context.Background(), q, mapping, pins[w], opts.K)
		}(w)
	}
	wg.Wait()
	for w, pin := range pins {
		if errs[w] != nil {
			t.Fatalf("pin %d: execution after Close failed: %v", w, errs[w])
		}
		want, err := built.Execute(context.Background(), queries[w%len(queries)])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[w].Results, want.Results) {
			t.Fatalf("pin %d: answer after Close diverged from the built engine\ngot:  %v\nwant: %v",
				w, results[w].Results, want.Results)
		}
		pin.Release()
	}
	if vs := mm.StoreViewStats(); vs.Live != 0 {
		t.Fatalf("%d live views after every pin released", vs.Live)
	}
}
