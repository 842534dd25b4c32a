package standing

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"tkij/internal/baselines"
	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/join"
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
// materialization tracks a fresh execute exactly, epoch by epoch.
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
		requireEquivalent(t, "after append", q, tk.Results, want)
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

// TestInvalidateStoreResync: a store rebuild voids the diff base; the
// subscription re-bases through a resync (possibly rewinding the
// epoch) and keeps tracking fresh executes.
func TestInvalidateStoreResync(t *testing.T) {
	e := newTestEngine(t, testCols(3, 250, 14), core.Options{Granules: 6, K: 8, Reducers: 3})
	m := NewManager(e)
	defer m.Close()
	q := query.Qbb(query.Env{Params: scoring.P1})

	sub, err := m.Subscribe(context.Background(), q, 8, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	tk := NewTopK(8)
	waitEpoch(t, sub, tk, 0)

	rng := rand.New(rand.NewSource(9))
	var counter int64
	epoch, err := e.Append(0, randBatch(rng, 0, 6, &counter))
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, sub, tk, epoch)

	e.InvalidateStore() // epoch sequence restarts at 0
	m.Quiesce()
	// The pushed state must land back on the rebuilt store's epoch; the
	// consumer sees it as a resync.
	want, fe := freshResults(t, e, q, identity(3), 8)
	sawResync := false
	deadline := time.After(30 * time.Second)
	for tk.Epoch != fe || !sawResync {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				t.Fatalf("channel closed: %v", sub.Err())
			}
			if d.Resync {
				sawResync = true
			}
			if err := tk.Apply(d); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("no resync after InvalidateStore (epoch %d, want %d)", tk.Epoch, fe)
		}
	}
	requireSameResults(t, "after rebuild", tk.Results, want)
	if st := m.Stats(); st.Resyncs == 0 {
		t.Fatalf("rebuild did not resync: %+v", st)
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
	requireEquivalent(t, "after lag", q, tk.Results, want)
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

// TestPushProbeSolvesNoBounds: a subscription owns one pair-bound memo,
// its push cycles' loose phase fills it and the probe's join reads it —
// so a probe solves no bound of its own, across in-range appends (pure
// lookups) and boundary-widening ones (a new memo generation) alike,
// while the pushed top-k stays the exhaustive one and the memo never
// keeps a box the granulation has moved on from.
func TestPushProbeSolvesNoBounds(t *testing.T) {
	const k = 8
	cols := testCols(3, 70, 15)
	e := newTestEngine(t, cols, core.Options{Granules: 6, K: k, Reducers: 3})
	m := NewManager(e)
	defer m.Close()
	q := query.Qom(query.Env{Params: scoring.P1})

	sub, err := m.Subscribe(context.Background(), q, k, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	rng := rand.New(rand.NewSource(9))
	var counter int64
	before := m.Stats()
	for i := 0; i < 20; i++ {
		col := i % 3
		batch := randBatch(rng, col, 4, &counter)
		for j := range batch { // in range: within the original extent
			batch[j].Start %= 2900
			batch[j].End = batch[j].Start + 1 + batch[j].End%90
		}
		widens := i%4 == 3
		if widens { // every fourth append pushes the last granule's upper edge out
			batch[0].End = 4000 + int64(i)*300
		}
		if _, err := e.Append(col, batch); err != nil {
			t.Fatal(err)
		}
		m.Quiesce()

		st := m.Stats()
		if st.Pushes != before.Pushes+1 || st.Resyncs != 0 {
			t.Fatalf("append %d: %d pushes, %d resyncs since the last one — want exactly one incremental push",
				i, st.Pushes-before.Pushes, st.Resyncs)
		}
		if st.ProbeBoundSolves != 0 {
			t.Fatalf("append %d (widening=%t): the probe's join solved %d pair bounds its push's loose phase should have left in the memo",
				i, widens, st.ProbeBoundSolves)
		}
		before = st

		got, _ := sub.Snapshot()
		want, err := baselines.Naive(q, cols, k)
		if err != nil {
			t.Fatal(err)
		}
		if !join.ScoreMultisetEqual(got, want, 1e-9) {
			t.Fatalf("append %d: pushed top-%d diverges from the exhaustive oracle\n got: %v\nwant: %v", i, k, got, want)
		}
	}
	if before.ProbedCombos == 0 {
		t.Fatal("no push probed any combination — the test lost its subject")
	}

	// A shape change starts the memo's next generation, so everything it
	// holds was asked for over the current boxes: at most one entry per
	// edge and pair of live buckets, however many widenings went by (the
	// bound per-bucket invalidation used to give).
	pin, err := e.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	livePairs := 0
	for _, edge := range q.Edges {
		livePairs += len(pin.Matrices()[edge.From].Buckets()) * len(pin.Matrices()[edge.To].Buckets())
	}
	if got := sub.memo.Len(); got == 0 || got > livePairs {
		t.Fatalf("subscription memo holds %d entries over %d live bucket pairs", got, livePairs)
	}
}
