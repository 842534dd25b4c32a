package admission

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tkij/internal/core"
	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

func testEngine(t *testing.T, n int, opts core.Options) *core.Engine {
	t.Helper()
	cols := []*interval.Collection{
		datagen.Uniform("C1", n, 11), datagen.Uniform("C2", n, 12), datagen.Uniform("C3", n, 13),
	}
	if opts.Granules == 0 {
		opts.Granules = 8
	}
	if opts.K == 0 {
		opts.K = 10
	}
	if opts.Reducers == 0 {
		opts.Reducers = 4
	}
	e, err := core.NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testQuery(t *testing.T, name string) *query.Query {
	t.Helper()
	q, err := query.ByName(name, query.Env{Params: scoring.P1})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// occupy takes every execution slot of s, as if MaxInflight queries
// were executing; later Submits queue until free hands the slots back.
func occupy(s *Server) {
	s.mu.Lock()
	s.running = s.opts.MaxInflight
	s.mu.Unlock()
}

func free(s *Server) {
	for i := 0; i < s.opts.MaxInflight; i++ {
		s.release()
	}
}

// waitQueued returns once n Submits wait for a slot.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		queued := len(s.queue)
		s.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d submits queued, want %d", queued, n)
		}
		runtime.Gosched()
	}
}

// A full queue must reject immediately with ErrQueueFull, and a closed
// server with ErrClosed.
func TestBackpressureAndClose(t *testing.T) {
	e := testEngine(t, 300, core.Options{})
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	b := New(e, Options{MaxQueue: 2, MaxInflight: 1})
	q := testQuery(t, "Qb,b")

	occupy(b)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := b.Submit(context.Background(), q, nil)
			done <- err
		}()
	}
	waitQueued(t, b, 2)
	if _, err := b.Submit(context.Background(), q, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit returned %v, want ErrQueueFull", err)
	}
	// Close runs the queued queries rather than failing them.
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	free(b)
	<-closed
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued submit failed: %v", err)
		}
	}
	if _, err := b.Submit(context.Background(), q, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close returned %v, want ErrClosed", err)
	}
	if st := b.Stats(); st.Rejected != 1 || st.Submitted != 2 || st.Completed != 2 || st.QueueHighWater != 2 {
		t.Fatalf("stats %+v, want 1 rejected, 2 submitted and completed, queue high water 2", st)
	}
}

// Cancellation: a canceled context fails that query (and only that
// query) with the engine's distinct cancellation error, whether it is
// canceled before admission or while queued.
func TestSubmitCancellation(t *testing.T) {
	e := testEngine(t, 300, core.Options{})
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	b := New(e, Options{MaxInflight: 1})
	defer b.Close()
	q := testQuery(t, "Qb,b")

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(pre, q, nil); !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled submit returned %v, want ErrCanceled/context.Canceled", err)
	}

	// Cancel while queued behind a busy slot.
	occupy(b)
	ctx, cancel2 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, q, nil)
		errc <- err
	}()
	waitQueued(t, b, 1)
	cancel2()
	if err := <-errc; !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled-in-queue submit returned %v, want ErrCanceled", err)
	}
	waitQueued(t, b, 0)
	free(b)

	// An uncanceled sibling submitted afterwards still succeeds.
	if _, err := b.Submit(context.Background(), q, nil); err != nil {
		t.Fatalf("sibling submit failed: %v", err)
	}
}

// Every accepted Submit is counted once as completed, whatever its
// outcome: Submits canceled while they wait for a slot included, so at
// quiescence Submitted == Completed.
func TestCanceledWhileQueuedCompletes(t *testing.T) {
	e := testEngine(t, 300, core.Options{})
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	b := New(e, Options{MaxInflight: 1})
	defer b.Close()
	q := testQuery(t, "Qb,b")

	occupy(b)
	const n = 8
	cancels := make([]context.CancelFunc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(ctx, q, nil)
		}(i)
		waitQueued(t, b, i+1)
	}
	for i := 0; i < n; i += 2 {
		cancels[i]()
	}
	waitQueued(t, b, n/2)
	free(b)
	wg.Wait()
	for i, err := range errs {
		canceled := i%2 == 0
		if canceled && !errors.Is(err, core.ErrCanceled) || !canceled && err != nil {
			t.Fatalf("submit %d (canceled %v) returned %v", i, canceled, err)
		}
		cancels[i]()
	}
	if st := b.Stats(); st.Submitted != n || st.Completed != n {
		t.Fatalf("stats submitted/completed = %d/%d at quiescence, want %d/%d", st.Submitted, st.Completed, n, n)
	}
	b.mu.Lock()
	running, queued := b.running, len(b.queue)
	b.mu.Unlock()
	if running != 0 || queued != 0 {
		t.Fatalf("%d slots held and %d submits queued at quiescence", running, queued)
	}
}

// Live epoch views under continuous ingest must be bounded by the
// in-flight cap — not by the number of waiting queries — and must
// drain to zero once the server closes.
func TestLiveViewsBoundedUnderIngest(t *testing.T) {
	e := testEngine(t, 600, core.Options{})
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	const maxInflight = 2
	b := New(e, Options{MaxInflight: maxInflight})
	q := testQuery(t, "Qb,b")

	// One append follows every answered query, so appends interleave
	// with the executions in flight.
	answered := make(chan struct{}, 1)
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		for i := 0; ; i++ {
			if _, ok := <-answered; !ok {
				return
			}
			batch := []interval.Interval{{ID: int64(100000 + i), Start: int64(i % 500), End: int64(i%500 + 10)}}
			if _, err := e.Append(i%3, batch); err != nil {
				t.Error(err)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if _, err := b.Submit(context.Background(), q, nil); err != nil {
					t.Error(err)
					return
				}
				select {
				case answered <- struct{}{}:
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(answered)
	<-ingestDone
	b.Close()

	vs := e.Store().ViewStats()
	if vs.Live != 0 {
		t.Fatalf("live views after close = %d, want 0 (views must release deterministically)", vs.Live)
	}
	if vs.HighWater > maxInflight {
		t.Fatalf("view high-water %d exceeds the in-flight bound %d", vs.HighWater, maxInflight)
	}
	if vs.HighWater < 1 {
		t.Fatalf("view high-water %d: no execution ever pinned?", vs.HighWater)
	}
	if e.Epoch() < 1 {
		t.Fatal("no append interleaved with the queries")
	}
}

// An invalid submit fails alone; a valid one beside it succeeds.
func TestInvalidMemberFailsAlone(t *testing.T) {
	e := testEngine(t, 300, core.Options{})
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	b := New(e, Options{})
	defer b.Close()
	q := testQuery(t, "Qb,b")

	var wg sync.WaitGroup
	var badErr, goodErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, badErr = b.Submit(context.Background(), q, []int{0, 99}) // out-of-range mapping
	}()
	go func() {
		defer wg.Done()
		_, goodErr = b.Submit(context.Background(), q, nil)
	}()
	wg.Wait()
	if badErr == nil {
		t.Fatal("invalid mapping did not error")
	}
	if goodErr != nil {
		t.Fatalf("valid sibling failed: %v", goodErr)
	}
	if st := b.Stats(); st.Submitted != 2 || st.Completed != 2 {
		t.Fatalf("stats %+v, want 2 submitted and completed", st)
	}
}

// A canceled Submit must not poison concurrent Submits of its shape:
// the plan cache plans that shape once for all of them, and the
// planning carries no caller's context, so the siblings never see the
// cancellation even when the canceled Submit is the one planning.
func TestCanceledLeaderDoesNotPoisonBatch(t *testing.T) {
	e := testEngine(t, 500, core.Options{})
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	b := New(e, Options{})
	defer b.Close()
	q := testQuery(t, "Qo,m")

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var canceledErr error
	okErrs := make([]error, 4)
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, canceledErr = b.Submit(ctx, q, nil)
	}()
	<-started
	for i := range okErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, okErrs[i] = b.Submit(context.Background(), q, nil)
		}(i)
	}
	cancel()
	wg.Wait()

	// The canceled Submit may have finished or aborted — both are
	// legal; what must hold is that its siblings never see its
	// cancellation.
	if canceledErr != nil && !errors.Is(canceledErr, context.Canceled) {
		t.Fatalf("canceled submit: unexpected error %v", canceledErr)
	}
	for i, err := range okErrs {
		if err != nil {
			t.Fatalf("sibling %d poisoned by a canceled submit: %v", i, err)
		}
	}
}

func ExampleServer() {
	cols := []*interval.Collection{
		datagen.Uniform("C1", 500, 1), datagen.Uniform("C2", 500, 2), datagen.Uniform("C3", 500, 3),
	}
	e, err := core.NewEngine(cols, core.Options{Granules: 8, K: 5, Reducers: 4})
	if err != nil {
		panic(err)
	}
	q, err := query.ByName("Qb,b", query.Env{Params: scoring.P1})
	if err != nil {
		panic(err)
	}
	s := New(e, Options{})
	defer s.Close()

	var wg sync.WaitGroup
	reports := make([]*core.Report, 4)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], _ = s.Submit(context.Background(), q, nil)
		}(i)
	}
	wg.Wait()
	fmt.Println("results:", len(reports[0].Results), "batch size:", reports[0].BatchSize)
	// Output:
	// results: 5 batch size: 1
}
