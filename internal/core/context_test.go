package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

// Context cancellation must abort Execute between phases with the
// distinct ErrCanceled error — satisfying errors.Is for both the
// sentinel and the context's own cause — and must never corrupt the
// engine for later executions.
func TestExecuteCanceled(t *testing.T) {
	cols := []*interval.Collection{
		datagen.Uniform("C1", 400, 1), datagen.Uniform("C2", 400, 2), datagen.Uniform("C3", 400, 3),
	}
	e, err := NewEngine(cols, Options{Granules: 8, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ByName("Qo,m", query.Env{Params: scoring.P1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, q); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Execute returned %v, want ErrCanceled wrapping context.Canceled", err)
	}

	// An already-expired deadline reports the deadline cause, still
	// under the same sentinel.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.Execute(dctx, q); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline Execute returned %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}

	// The engine is untouched: a live context still executes, and the
	// canceled attempts released their pinned views.
	report, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) == 0 {
		t.Fatal("post-cancel execution returned no results")
	}
	if vs := e.Store().ViewStats(); vs.Live != 0 {
		t.Fatalf("live views after executions = %d, want 0", vs.Live)
	}
}

// Two executions on one pin share one plan: an append landing between
// them moves the engine's epoch, not the pin's, so the second execution
// stays at the pin's epoch, hits the plan the first one cached for it
// and answers the same.
func TestExecutePinnedSharesPlan(t *testing.T) {
	cols := []*interval.Collection{
		datagen.Uniform("C1", 500, 4), datagen.Uniform("C2", 500, 5), datagen.Uniform("C3", 500, 6),
	}
	e, err := NewEngine(cols, Options{Granules: 8, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ByName("Qb,b", query.Env{Params: scoring.P1})
	if err != nil {
		t.Fatal(err)
	}
	pin, err := e.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	mapping := []int{0, 1, 2}

	key, err := pin.PlanKey(q, mapping, e.Options().K)
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("empty plan key")
	}
	first, err := e.ExecutePinned(context.Background(), q, mapping, pin, e.Options().K)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCacheHit {
		t.Fatal("the first execution of a shape hit the plan cache")
	}

	if _, err := e.Append(0, []interval.Interval{{ID: 99, Start: 5, End: 25}}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.ExecutePinned(context.Background(), q, mapping, pin, e.Options().K)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != pin.Epoch() {
		t.Fatalf("pinned execution reported epoch %d, pin is at %d", rep.Epoch, pin.Epoch())
	}
	if !rep.PlanCacheHit {
		t.Fatalf("second execution on the pin was a %s, want hit", rep.PlanOutcome())
	}
	if !reflect.DeepEqual(rep.Results, first.Results) {
		t.Fatal("two executions on one pin answered differently")
	}
}
