package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/join"
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

// PlanPinned and ExecutePinned share one pin: the follower's execution
// must be a plan-cache hit at the pinned epoch, and the pin must keep
// working after appends move the engine's own epoch forward.
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
	if err := e.PlanPinned(context.Background(), q, mapping, pin); err != nil {
		t.Fatal(err)
	}

	// An append lands between planning and execution; the pinned
	// execution must stay at the pin's epoch and still hit the plan
	// warmed for it.
	if _, err := e.Append(0, []interval.Interval{{ID: 99, Start: 5, End: 25}}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.ExecutePinned(context.Background(), q, mapping, pin, e.Options().K, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != pin.Epoch() {
		t.Fatalf("pinned execution reported epoch %d, pin is at %d", rep.Epoch, pin.Epoch())
	}
	if !rep.PlanCacheHit {
		t.Fatalf("pinned execution after PlanPinned was a %s, want hit", rep.PlanOutcome())
	}
}

// A floor the caller owns outlives one execution: a second execution on
// the same pin with the same floor starts every reducer at least at the
// first execution's final floor, and both answer exactly what an
// execution with a private floor answers.
func TestExecutePinnedCallerFloor(t *testing.T) {
	cols := []*interval.Collection{
		datagen.Uniform("C1", 400, 7), datagen.Uniform("C2", 400, 8), datagen.Uniform("C3", 400, 9),
	}
	e, err := NewEngine(cols, Options{Granules: 8, K: 10, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A shape whose k-th score lies between the probe ladder's rungs, so
	// reducers reach the first execution's final floor only through the
	// floor they are handed.
	q, err := query.ByName("QjB,jB", query.Env{Params: scoring.P1, Avg: 45})
	if err != nil {
		t.Fatal(err)
	}
	pin, err := e.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	mapping := []int{0, 1, 2}
	run := func(floor *join.SharedFloor) *Report {
		t.Helper()
		rep, err := e.ExecutePinned(context.Background(), q, mapping, pin, 10, floor)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	private := run(nil)
	floor := new(join.SharedFloor)
	first := run(floor)
	second := run(floor)
	if first.Join.SharedFloor <= 0 {
		t.Fatal("the first execution established no floor")
	}
	ran := 0
	for _, l := range second.Join.Locals {
		if l.CombosAssigned == 0 {
			continue
		}
		ran++
		if l.FloorUsed < first.Join.SharedFloor {
			t.Fatalf("reducer %d started the second execution at floor %g, below the first's final %g",
				l.Reducer, l.FloorUsed, first.Join.SharedFloor)
		}
	}
	if ran == 0 {
		t.Fatal("no reducer ran in the second execution")
	}
	for name, rep := range map[string]*Report{"first": first, "second": second} {
		if !reflect.DeepEqual(rep.Results, private.Results) {
			t.Fatalf("%s execution on the shared floor answered differently from a private floor", name)
		}
	}
}
