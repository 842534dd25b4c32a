package standing

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
)

// testCols builds n synthetic collections of perCol intervals each,
// deterministic in seed. IDs are globally unique (colIdx*1_000_000 + j)
// as the tie-break contract requires.
func testCols(n, perCol int, seed int64) []*interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, n)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(3000)
			c.Add(interval.Interval{ID: int64(i*1_000_000 + j), Start: s, End: s + 1 + rng.Int63n(90)})
		}
		cols[i] = c
	}
	return cols
}

// randBatch builds a batch of appended intervals with IDs disjoint from
// testCols (col*1_000_000 + 500_000 + counter).
func randBatch(rng *rand.Rand, col, n int, counter *int64) []interval.Interval {
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		*counter++
		s := rng.Int63n(3200)
		ivs[i] = interval.Interval{
			ID:    int64(col)*1_000_000 + 500_000 + *counter,
			Start: s,
			End:   s + 1 + rng.Int63n(90),
		}
	}
	return ivs
}

// waitEpoch drains sub's delta channel through tk until the
// materialized state reaches epoch, failing the test on a malformed
// delta, a closed channel, or a timeout.
func waitEpoch(t *testing.T, sub *Subscription, tk *TopK, epoch int64) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for tk.Seq == 0 || tk.Epoch < epoch {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				t.Fatalf("delta channel closed waiting for epoch %d (err: %v)", epoch, sub.Err())
			}
			if err := tk.Apply(d); err != nil {
				t.Fatalf("apply delta seq %d: %v", d.Seq, err)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for epoch %d (at %d)", epoch, tk.Epoch)
		}
	}
}

// freshResults executes (q, mapping, k) fresh at the engine's current
// epoch and returns the results and the pinned epoch.
func freshResults(t *testing.T, e *core.Engine, q *query.Query, mapping []int, k int) ([]join.Result, int64) {
	t.Helper()
	pin, err := e.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	rep, err := e.ExecutePinned(context.Background(), q, mapping, pin, k)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results, pin.Epoch()
}

// requireSameResults fails unless got and want are byte-identical
// result lists (same tuples, same order, same scores).
func requireSameResults(t *testing.T, label string, got, want []join.Result) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: materialized top-k diverges from fresh execute\n got: %v\nwant: %v", label, got, want)
	}
}

// requireEquivalent fails unless got and want are the same top-k up to
// ties at the k-th score: identical lengths and score multisets,
// byte-identical strictly above the floor, and every differing at-floor
// member genuinely scoring the floor under q. This is the strongest
// membership claim the pipeline makes across different plan states —
// even two fresh executes (cold plan vs revalidated plan) can return
// different-but-equally-valid members tied exactly at the k-th score,
// because floor-tied tuples in pruned combinations (UB == floor) are
// free to be either side of the cut.
func requireEquivalent(t *testing.T, label string, q *query.Query, got, want []join.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, fresh execute has %d", label, len(got), len(want))
	}
	if !join.ScoreMultisetEqual(got, want, 1e-9) {
		t.Fatalf("%s: score multiset diverges from fresh execute\n got: %v\nwant: %v", label, got, want)
	}
	if len(want) == 0 {
		return
	}
	floor := want[len(want)-1].Score
	for i := range got {
		if reflect.DeepEqual(got[i], want[i]) {
			continue
		}
		if got[i].Score > floor+1e-9 || want[i].Score > floor+1e-9 {
			t.Fatalf("%s: result %d differs above the floor %v\n got: %v\nwant: %v",
				label, i, floor, got[i], want[i])
		}
		if s := q.Score(got[i].Tuple); s-got[i].Score > 1e-9 || got[i].Score-s > 1e-9 {
			t.Fatalf("%s: at-floor member %v claims score %v, rescores to %v", label, got[i].Tuple, got[i].Score, s)
		}
	}
}

// identity returns the identity mapping for n vertices.
func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}
