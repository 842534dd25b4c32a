package standing

// Interleaving tests, run under -race in CI: concurrent Subscribe,
// Append, unsubscribe (ctx cancel and Close) and manager Close. The contracts under fire: consumers never observe a
// partial or malformed delta (TopK.Apply validates every one), a
// canceled or never-draining subscriber neither blocks Append nor
// poisons other subscriptions, and teardown releases every pinned
// store view.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tkij/internal/core"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

func TestStandingConcurrentChurn(t *testing.T) {
	e := newTestEngine(t, testCols(3, 120, 31), core.Options{Granules: 5, K: 6, Reducers: 2})
	m := NewManager(e)
	q := query.Qbb(query.Env{Params: scoring.P1})

	stop := make(chan struct{})
	// The churners subscribe under stopCtx, so a Subscribe still executing
	// when the test stops is abandoned rather than waited for: by then the
	// appender has grown the store by millions of intervals, and one
	// execution over it can take minutes.
	stopCtx, stopAll := context.WithCancel(context.Background())
	defer stopAll()
	var wg sync.WaitGroup
	var appends atomic.Int64

	// Appender: continuous small batches; must never block on any
	// subscriber.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(41))
		var counter int64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			col := i % 3
			if _, err := e.Append(col, randBatch(rng, col, 3, &counter)); err != nil {
				t.Error(err)
				return
			}
			appends.Add(1)
		}
	}()

	// Subscriber churn: each worker subscribes, drains and validates a
	// few deltas, then unsubscribes (alternating ctx cancel and Close)
	// and resubscribes.
	const churners = 3
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithCancel(stopCtx)
				sub, err := m.Subscribe(ctx, q, 6, SubOptions{Buffer: 2})
				if err != nil {
					cancel()
					if err == ErrClosed || (stopCtx.Err() != nil && errors.Is(err, context.Canceled)) {
						return
					}
					t.Error(err)
					return
				}
				tk := NewTopK(6)
				for drained := 0; drained < 4; drained++ {
					select {
					case d, ok := <-sub.Deltas():
						if !ok {
							drained = 4
							break
						}
						if err := tk.Apply(d); err != nil {
							t.Errorf("worker %d round %d: %v", w, round, err)
							cancel()
							return
						}
					case <-time.After(5 * time.Second):
						t.Errorf("worker %d round %d: no delta", w, round)
						cancel()
						return
					case <-stop:
						cancel()
						sub.Close()
						return
					}
				}
				if round%2 == 0 {
					cancel()
				} else {
					sub.Close()
					cancel()
				}
			}
		}(w)
	}

	// A poisoned-pill subscriber: canceled immediately, never drained.
	// Appends must keep flowing regardless.
	pillCtx, pillCancel := context.WithCancel(context.Background())
	pill, err := m.Subscribe(pillCtx, q, 6, SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	pillCancel()
	_ = pill

	deadline := time.After(2 * time.Second)
	before := appends.Load()
	<-deadline
	if appends.Load() == before {
		t.Error("appends stalled while subscribers churned")
	}
	close(stop)
	stopAll()
	wg.Wait()
	m.Close()

	// Every pin and view released: the live-view count must be exactly
	// zero once the manager is down.
	if vs := e.StoreViewStats(); vs.Live != 0 {
		t.Fatalf("%d live store views after Close", vs.Live)
	}
}

// TestStandingCloseRaces: Close racing Subscribe and Append neither
// deadlocks nor leaks subscriptions; late Subscribes fail with
// ErrClosed.
func TestStandingCloseRaces(t *testing.T) {
	e := newTestEngine(t, testCols(3, 100, 32), core.Options{Granules: 5, K: 5, Reducers: 2})
	m := NewManager(e)
	q := query.Qbb(query.Env{Params: scoring.P1})

	// handed closes once a subscription has been handed out, appended
	// once an Append has returned (or once their goroutines quit early,
	// so a failure cannot hang the test).
	handed, appended := make(chan struct{}), make(chan struct{})
	var handOnce, appendOnce sync.Once
	signal := func(once *sync.Once, ch chan struct{}) { once.Do(func() { close(ch) }) }

	var wg sync.WaitGroup
	subs := make(chan *Subscription, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer signal(&handOnce, handed)
			for i := 0; i < 16; i++ {
				sub, err := m.Subscribe(context.Background(), q, 5, SubOptions{})
				if err != nil {
					if err == ErrClosed {
						return
					}
					t.Error(err)
					return
				}
				subs <- sub
				signal(&handOnce, handed)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal(&appendOnce, appended)
		rng := rand.New(rand.NewSource(42))
		var counter int64
		for i := 0; i < 10; i++ {
			if _, err := e.Append(i%3, randBatch(rng, i%3, 2, &counter)); err != nil {
				t.Error(err)
				return
			}
			signal(&appendOnce, appended)
		}
	}()
	// Close once the work is live, not after a guessed delay.
	<-handed
	<-appended
	m.Close()
	wg.Wait()
	close(subs)

	// Every handed-out subscription's channel closes with a clean Err.
	for sub := range subs {
		for range sub.Deltas() {
		}
		if err := sub.Err(); err != nil {
			t.Fatalf("close-raced subscription terminated with %v", err)
		}
	}
	if vs := e.Store().ViewStats(); vs.Live != 0 {
		t.Fatalf("%d live store views after Close", vs.Live)
	}

	if _, err := m.Subscribe(context.Background(), q, 5, SubOptions{}); err != ErrClosed {
		t.Fatalf("Subscribe after Close = %v", err)
	}
}

// TestCanceledSubscriberDoesNotPoison: one subscriber's cancellation
// mid-stream leaves a healthy subscriber tracking fresh executes.
func TestCanceledSubscriberDoesNotPoison(t *testing.T) {
	e := newTestEngine(t, testCols(3, 200, 33), core.Options{Granules: 6, K: 8, Reducers: 3})
	m := NewManager(e)
	defer m.Close()
	q := query.Qbb(query.Env{Params: scoring.P1})

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := m.Subscribe(ctx, q, 8, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := m.Subscribe(context.Background(), q, 8, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	tk := NewTopK(8)
	waitEpoch(t, healthy, tk, 0)

	rng := rand.New(rand.NewSource(43))
	var counter int64
	epoch, err := e.Append(0, randBatch(rng, 0, 5, &counter))
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, healthy, tk, epoch)
	cancel() // doomed dies mid-stream
	for range doomed.Deltas() {
	}

	epoch, err = e.Append(1, randBatch(rng, 1, 5, &counter))
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, healthy, tk, epoch)
	want, _ := freshResults(t, e, q, identity(3), 8)
	requireSameResults(t, "after peer cancel", tk.Results, want)
}
