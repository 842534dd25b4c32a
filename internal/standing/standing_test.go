package standing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/obs"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

func newTestEngine(t *testing.T, cols []*interval.Collection, opts core.Options) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestSubscribeInitialSnapshot: the first delta on every channel is a
// resync carrying exactly the fresh top-k at subscription time.
func TestSubscribeInitialSnapshot(t *testing.T) {
	e := newTestEngine(t, testCols(3, 300, 11), core.Options{Granules: 6, K: 10, Reducers: 3})
	m := NewManager(e)
	defer m.Close()
	q := query.Qbb(query.Env{Params: scoring.P1})

	sub, err := m.Subscribe(context.Background(), q, 10, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	d := <-sub.Deltas()
	if !d.Resync || d.Seq != 1 {
		t.Fatalf("first delta must be resync seq 1, got resync=%v seq=%d", d.Resync, d.Seq)
	}
	tk := NewTopK(10)
	if err := tk.Apply(d); err != nil {
		t.Fatal(err)
	}
	want, epoch := freshResults(t, e, q, identity(3), 10)
	if tk.Epoch != epoch {
		t.Fatalf("snapshot epoch %d, engine at %d", tk.Epoch, epoch)
	}
	requireSameResults(t, "initial", tk.Results, want)
	if sub.PlanKey() == "" {
		t.Fatal("subscription has no plan key")
	}
}

// TestIncrementalPush: appends drive incremental deltas whose
// materialization equals a fresh execute byte for byte, epoch by epoch.
func TestIncrementalPush(t *testing.T) {
	e := newTestEngine(t, testCols(3, 300, 12), core.Options{Granules: 6, K: 10, Reducers: 3})
	m := NewManager(e)
	defer m.Close()
	q := query.Qbb(query.Env{Params: scoring.P1})

	sub, err := m.Subscribe(context.Background(), q, 10, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	tk := NewTopK(10)
	waitEpoch(t, sub, tk, 0)

	rng := rand.New(rand.NewSource(7))
	var counter int64
	for i := 0; i < 8; i++ {
		col := i % 2
		epoch, err := e.Append(col, randBatch(rng, col, 5, &counter))
		if err != nil {
			t.Fatal(err)
		}
		waitEpoch(t, sub, tk, epoch)
		want, fe := freshResults(t, e, q, identity(3), 10)
		if fe != epoch {
			t.Fatalf("fresh execute pinned epoch %d, appended %d", fe, epoch)
		}
		requireSameResults(t, "after append", tk.Results, want)
	}
	st := m.Stats()
	if st.Pushes+st.Promotions == 0 {
		t.Fatalf("no incremental work recorded: %+v", st)
	}
	if st.Resyncs != 0 {
		t.Fatalf("append-only stream forced %d resyncs: %+v", st.Resyncs, st)
	}
}

// TestPromotePath: appends into a collection the query does not read
// advance the subscription's epoch with an empty incremental delta.
func TestPromotePath(t *testing.T) {
	e := newTestEngine(t, testCols(3, 200, 13), core.Options{Granules: 6, K: 5, Reducers: 3})
	m := NewManager(e)
	defer m.Close()
	q, err := query.New("before2", 2,
		[]query.Edge{{From: 0, To: 1, Pred: scoring.Before(scoring.P1)}}, scoring.Avg{})
	if err != nil {
		t.Fatal(err)
	}

	// The query reads collections 0 and 1; appends go to collection 2.
	sub, err := m.Subscribe(context.Background(), q, 5, SubOptions{Mapping: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	tk := NewTopK(5)
	waitEpoch(t, sub, tk, 0)
	before := append([]float64(nil), scoresOf(tk)...)

	rng := rand.New(rand.NewSource(8))
	var counter int64
	epoch, err := e.Append(2, randBatch(rng, 2, 10, &counter))
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, sub, tk, epoch)
	after := scoresOf(tk)
	if len(before) != len(after) {
		t.Fatalf("promotion changed the top-k size: %d -> %d", len(before), len(after))
	}
	m.Quiesce()
	if st := m.Stats(); st.Promotions == 0 {
		t.Fatalf("append to unread collection did not promote: %+v", st)
	}
}

func scoresOf(tk *TopK) []float64 {
	out := make([]float64, len(tk.Results))
	for i, r := range tk.Results {
		out[i] = r.Score
	}
	return out
}

// TestApplyRefusesEpochRewind: an engine's epoch never goes back, so a
// delta that rewinds the materialized epoch is malformed — a resync
// included — and leaves the state unchanged.
func TestApplyRefusesEpochRewind(t *testing.T) {
	r := join.Result{Tuple: []interval.Interval{{ID: 1, Start: 0, End: 5}}, Score: 0.5}
	tk := NewTopK(2)
	if err := tk.Apply(Delta{Epoch: 3, Seq: 1, Resync: true, TopK: []join.Result{r}, Floor: -1}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Delta{
		{Epoch: 2, Seq: 2, Resync: true, TopK: []join.Result{r}, Floor: -1},
		{Epoch: 2, Seq: 2, Floor: -1},
	} {
		if err := tk.Apply(d); err == nil || !strings.Contains(err.Error(), "rewinds epoch") {
			t.Fatalf("Apply(resync=%v, epoch 2) after epoch 3 = %v, want a rewind refusal", d.Resync, err)
		}
		if tk.Epoch != 3 || tk.Seq != 1 || len(tk.Results) != 1 {
			t.Fatalf("refused delta changed the state: epoch %d seq %d, %d results", tk.Epoch, tk.Seq, len(tk.Results))
		}
	}
	// A resync at the current epoch (slow-subscriber coalescing) applies.
	if err := tk.Apply(Delta{Epoch: 3, Seq: 2, Resync: true, Floor: -1}); err != nil {
		t.Fatal(err)
	}
}

// TestSlowSubscriber: an undrained subscription coalesces pending
// deltas into one resync instead of growing its queue or blocking
// Append; draining after the fact re-bases it to the current state.
func TestSlowSubscriber(t *testing.T) {
	e := newTestEngine(t, testCols(3, 250, 15), core.Options{Granules: 6, K: 8, Reducers: 3})
	m := NewManager(e)
	defer m.Close()
	q := query.Qbb(query.Env{Params: scoring.P1})

	sub, err := m.Subscribe(context.Background(), q, 8, SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Do not drain: every push past the 1-slot queue must coalesce.
	rng := rand.New(rand.NewSource(10))
	var counter int64
	var last int64
	for i := 0; i < 12; i++ {
		col := i % 2
		last, err = e.Append(col, randBatch(rng, col, 4, &counter))
		if err != nil {
			t.Fatal(err)
		}
		m.Quiesce() // server-side push completes without any draining
	}

	tk := NewTopK(8)
	waitEpoch(t, sub, tk, last)
	want, _ := freshResults(t, e, q, identity(3), 8)
	requireSameResults(t, "after lag", tk.Results, want)
	if st := m.Stats(); st.DroppedDeltas == 0 || st.Resyncs != 0 {
		t.Fatalf("lag must coalesce deltas without a push-cycle resync: %+v", st)
	}
}

// TestSubscriptionLifecycle: ctx cancellation and Close both end the
// subscription, close its channel and deregister it.
func TestSubscriptionLifecycle(t *testing.T) {
	e := newTestEngine(t, testCols(3, 150, 16), core.Options{Granules: 5, K: 5, Reducers: 2})
	m := NewManager(e)
	defer m.Close()
	q := query.Qbb(query.Env{Params: scoring.P1})

	ctx, cancel := context.WithCancel(context.Background())
	sub, err := m.Subscribe(ctx, q, 5, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for range sub.Deltas() {
	}
	if err := sub.Err(); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled subscription Err = %v", err)
	}

	sub2, err := m.Subscribe(context.Background(), q, 5, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub2.Close()
	sub2.Close() // idempotent
	for range sub2.Deltas() {
	}
	if err := sub2.Err(); err != nil {
		t.Fatalf("clean close Err = %v", err)
	}

	m.Close()
	if _, err := m.Subscribe(context.Background(), q, 5, SubOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v", err)
	}
}

// TestManagerCloseClosesChannels: Close terminates live subscriptions
// cleanly and leaves zero live store views.
func TestManagerCloseClosesChannels(t *testing.T) {
	e := newTestEngine(t, testCols(3, 150, 17), core.Options{Granules: 5, K: 5, Reducers: 2})
	m := NewManager(e)
	q := query.Qbb(query.Env{Params: scoring.P1})

	subs := make([]*Subscription, 3)
	for i := range subs {
		s, err := m.Subscribe(context.Background(), q, 5, SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	m.Close()
	for _, s := range subs {
		for range s.Deltas() {
		}
		if err := s.Err(); err != nil {
			t.Fatalf("manager close terminated with %v", err)
		}
	}
	if vs := e.Store().ViewStats(); vs.Live != 0 {
		t.Fatalf("%d live store views after Close", vs.Live)
	}
}

// pushTrace is what a trace records of one push: its execution's
// plan-cache outcome.
type pushTrace struct {
	outcome string
}

// pushTraces reads every push out of tr's push-cycle trees, in order.
func pushTraces(t *testing.T, tr *obs.Tracer) []pushTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var pushes []pushTrace
	inCycle, inPush := false, false
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var row struct {
			Name  string         `json:"name"`
			Depth int            `json:"depth"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := dec.Decode(&row); err != nil {
			t.Fatal(err)
		}
		switch {
		case row.Depth == 0:
			inCycle, inPush = row.Name == "push-cycle", false
		case row.Depth == 1:
			if inPush = inCycle && row.Name == "push"; inPush {
				pushes = append(pushes, pushTrace{})
			}
		case !inPush:
		case row.Depth == 3 && row.Name == "plan":
			pushes[len(pushes)-1].outcome, _ = row.Attrs["outcome"].(string)
		}
	}
	return pushes
}

// TestPushRidesPlanCache: a push is one execution through the plan
// cache. After an append that moved no bucket's box it promotes the
// cached plan (Revalidations +1); after an append that widens a
// boundary granule it plans again (a Miss). Either way the pushed top-k
// is the fresh execute's.
func TestPushRidesPlanCache(t *testing.T) {
	const k = 8
	cols := testCols(3, 70, 15)
	tr := obs.NewTracer()
	e := newTestEngine(t, cols, core.Options{Granules: 6, K: k, Reducers: 3, Tracer: tr})
	m := NewManager(e)
	defer m.Close()
	q := query.Qom(query.Env{Params: scoring.P1})

	sub, err := m.Subscribe(context.Background(), q, k, SubOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	tk := NewTopK(k)
	waitEpoch(t, sub, tk, 0)

	rng := rand.New(rand.NewSource(9))
	var counter int64
	before, planBefore := m.Stats(), e.PlanCacheStats()
	for i := 0; i < 20; i++ {
		col := i % 3
		batch := randBatch(rng, col, 4, &counter)
		for j := range batch { // interior: the box of an interval already there
			iv := cols[col].Items[rng.Intn(70)]
			batch[j].Start, batch[j].End = iv.Start, iv.End
		}
		widens := i%4 == 3
		if widens { // every fourth append pushes the last granule's upper edge out
			batch[0].End = 4000 + int64(i)*300
		}
		epoch, err := e.Append(col, batch)
		if err != nil {
			t.Fatal(err)
		}
		m.Quiesce()

		st, plans := m.Stats(), e.PlanCacheStats()
		if st.Pushes != before.Pushes+1 || st.Resyncs != 0 {
			t.Fatalf("append %d: %d pushes, %d resyncs since the last one — want exactly one push",
				i, st.Pushes-before.Pushes, st.Resyncs)
		}
		pushes := pushTraces(t, tr)
		if len(pushes) != i+1 {
			t.Fatalf("append %d: the trace holds %d pushes, want %d", i, len(pushes), i+1)
		}
		got := pushes[i]
		revalidated, missed := plans.Revalidations-planBefore.Revalidations, plans.Misses-planBefore.Misses
		if widens {
			if got.outcome != "miss" || missed != 1 || revalidated != 0 {
				t.Fatalf("append %d widens a boundary granule: the push's plan was %q (%d misses, %d promotions), want one miss",
					i, got.outcome, missed, revalidated)
			}
		} else {
			if got.outcome != "revalidated" || revalidated != 1 || missed != 0 {
				t.Fatalf("append %d moves no box: the push's plan was %q (%d promotions, %d misses), want one promotion",
					i, got.outcome, revalidated, missed)
			}
		}
		before, planBefore = st, plans

		waitEpoch(t, sub, tk, epoch)
		want, _ := freshResults(t, e, q, identity(3), k)
		requireSameResults(t, fmt.Sprintf("append %d", i), tk.Results, want)
		planBefore = e.PlanCacheStats() // the fresh execute above is a hit
	}
	if before.ProbedCombos == 0 {
		t.Fatal("no push read any combination — the test lost its subject")
	}
}
