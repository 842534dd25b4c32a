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
// result lists (same tuples, same order, same scores): a pushed top-k
// is one fresh execution's, so it equals another at the same epoch.
func requireSameResults(t *testing.T, label string, got, want []join.Result) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: materialized top-k diverges from fresh execute\n got: %v\nwant: %v", label, got, want)
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
