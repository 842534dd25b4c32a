package join

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

func TestSharedFloorMonotonic(t *testing.T) {
	s := NewSharedFloor(0.3)
	if got := s.Load(); got != 0.3 {
		t.Fatalf("seed = %g, want 0.3", got)
	}
	s.Raise(0.2) // lower: ignored
	s.Raise(math.NaN())
	s.Raise(-1)
	if got := s.Load(); got != 0.3 {
		t.Fatalf("floor regressed to %g", got)
	}
	s.Raise(0.7)
	if got := s.Load(); got != 0.7 {
		t.Fatalf("floor = %g, want 0.7", got)
	}
	var zero SharedFloor
	if zero.Load() != 0 {
		t.Fatal("zero value should start at 0")
	}
}

func TestSharedFloorConcurrentRaise(t *testing.T) {
	s := NewSharedFloor(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				s.Raise(float64(g*1000+i) / 8000)
			}
		}(g)
	}
	wg.Wait()
	if got := s.Load(); got != 1 {
		t.Fatalf("concurrent max = %g, want 1", got)
	}
}

// Watch under 16 concurrent raisers: fn sees the seed at registration,
// calls see a non-decreasing floor and the last one the final floor, a
// raise that lifts nothing wakes nobody, and no call runs after stop
// returns.
func TestSharedFloorWatch(t *testing.T) {
	s := NewSharedFloor(0.25)
	var (
		mu      sync.Mutex
		seen    []float64
		stopped atomic.Bool
		called  = make(chan struct{}, 1) // a pending signal: fn has run since the last receive
	)
	stop := s.Watch(func(v float64) {
		defer func() {
			select {
			case called <- struct{}{}:
			default:
			}
		}()
		if stopped.Load() {
			t.Error("fn ran after stop returned")
		}
		mu.Lock()
		defer mu.Unlock()
		if n := len(seen); n > 0 && v < seen[n-1] {
			t.Errorf("fn saw the floor fall from %g to %g", seen[n-1], v)
		}
		seen = append(seen, v)
	})
	last := func() (float64, int) {
		mu.Lock()
		defer mu.Unlock()
		return seen[len(seen)-1], len(seen)
	}
	if v, n := last(); n != 1 || v != 0.25 {
		t.Fatalf("registration: %d calls, last %g; want one call with the seed 0.25", n, v)
	}

	const raisers, steps = 16, 400
	raiseAll := func(base float64) *sync.WaitGroup {
		var wg sync.WaitGroup
		for g := 0; g < raisers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 1; i <= steps; i++ {
					s.Raise(base + float64(i*raisers+g)/(steps*raisers*4))
				}
			}(g)
		}
		return &wg
	}
	raiseAll(0.25).Wait()
	final := s.Load()
	for deadline := time.After(10 * time.Second); ; {
		v, _ := last()
		if v == final {
			break
		}
		select {
		case <-called:
		case <-deadline:
			t.Fatalf("fn last saw %g, the final floor is %g", v, final)
		}
	}

	// Raisers racing stop: once stop returns, fn must never run again.
	wg := raiseAll(final)
	stop()
	stopped.Store(true)
	wg.Wait()
	stop() // idempotent

	// A raise that lifts nothing wakes nobody. The watcher is held inside
	// the call for a lifting raise, so any wakeup the no-op raises left
	// would still be pending on its channel when it is inspected.
	quiet := NewSharedFloor(0.5)
	calls, gate := make(chan float64, 2), make(chan struct{})
	stopQuiet := quiet.Watch(func(v float64) {
		calls <- v
		if v == 0.75 {
			<-gate
		}
	})
	<-calls // registration
	quiet.Raise(0.75)
	if v := <-calls; v != 0.75 {
		t.Fatalf("lifting raise woke fn with %g, want 0.75", v)
	}
	quiet.Raise(0.75)
	quiet.Raise(0.25)
	quiet.Raise(math.NaN())
	quiet.Raise(-1)
	for _, wake := range *quiet.wakes.Load() {
		if len(wake) != 0 {
			t.Fatal("a raise that lifted nothing left a wakeup pending")
		}
	}
	close(gate)
	stopQuiet()
	if n := len(calls); n != 0 {
		t.Fatalf("%d calls after the only lifting raise", n)
	}
}

// The shared cross-reducer threshold must end at a sound value: at
// least the seeded floor, at most the global k-th score (it is a max of
// per-reducer k-th-score lower bounds).
func TestSharedThresholdSoundness(t *testing.T) {
	cols := synthCols(3, 50, 43)
	env := query.Env{Params: scoring.P1}
	q := query.Qbb(env)
	const k = 8
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	kth := exact[len(exact)-1].Score
	out := pipeline(t, q, cols, 5, k, topbuckets.Loose, LocalOptions{})
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatal("shared-threshold run inexact")
	}
	if out.SharedFloor > kth+1e-9 {
		t.Fatalf("shared floor %g exceeds global k-th score %g", out.SharedFloor, kth)
	}
	for _, l := range out.Locals {
		if l.SharedFloorFinal > kth+1e-9 {
			t.Fatalf("reducer %d saw unsound shared floor %g (k-th = %g)", l.Reducer, l.SharedFloorFinal, kth)
		}
	}
	// Pruning disabled → no shared floor is established.
	off := pipeline(t, q, cols, 5, k, topbuckets.Loose, LocalOptions{DisablePruning: true})
	if off.SharedFloor != 0 {
		t.Fatalf("pruning-disabled run published shared floor %g", off.SharedFloor)
	}
}

// A reducer that returns no results must report MinScore 0 (not NaN) so
// reports survive encoding/json.
func TestLocalStatsJSONSafe(t *testing.T) {
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Before(scoring.P1)}}, scoring.Avg{})
	// One combination over buckets holding no data at all: the reducer
	// runs and returns zero results.
	empty := map[stats.BucketKey][]interval.Interval{}
	srcs := []Source{newMapSource(0, empty), newMapSource(1, empty)}
	combos := []topbuckets.Combo{{Buckets: []stats.Bucket{{Col: 0}, {Col: 1}}, UB: 1, EdgeUB: []float64{1}}}
	out, err := runJoin(q, srcs, make([]stats.Grid, 2), combos, 3, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 {
		t.Fatalf("expected no results, got %d", len(out.Results))
	}
	st := out.Locals[0]
	if st.CombosAssigned != 1 {
		t.Fatalf("the reducer did not run: %+v", st)
	}
	if st.ResultsReturned != 0 || st.MinScore != 0 {
		t.Fatalf("zero-result stats = %+v, want MinScore 0", st)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("LocalStats not JSON-safe: %v", err)
	}
}

// raisingSource is a Source whose first bucket resolution raises floor to
// v — what another reducer certifying the k-th score looks like to the
// reducer reading through it.
type raisingSource struct {
	Source
	once  *sync.Once
	floor *SharedFloor
	v     float64
}

func (s raisingSource) Bucket(startG, endG int) Bucket {
	s.once.Do(func() { s.floor.Raise(s.v) })
	return s.Source.Bucket(startG, endG)
}

// A probe-ladder rung reads the shared floor live. Here the floor is
// certified at the global k-th score during rung 0.95, at the rung's
// first bucket resolution, as another reducer would. At k = 8 (k-th
// score 0.875) rung 0.95 fails to fill, rung 0.75 is covered by the
// floor and skipped, and the reducer answers from the floor. At k = 2
// (k-th score 1) rung 0.95 prunes at 1 from that bucket on. Either way
// the reducer runs one rung, answers exactly, and does the work of a
// reducer that found the floor certified when it started.
func TestRungYieldsToSharedFloor(t *testing.T) {
	cols := synthCols(3, 120, 21)
	q := query.Qss(query.Env{Params: scoring.P1})
	ms := collect(t, cols, 6)
	for _, k := range []int{8, 2} {
		exact, err := Exhaustive(q, cols, k)
		if err != nil {
			t.Fatal(err)
		}
		kth := exact[len(exact)-1].Score
		tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func(floor *SharedFloor, raise bool) LocalStats {
			srcs, grans := storeSources(t, cols, ms)
			if raise {
				once := new(sync.Once)
				for v := range srcs {
					srcs[v] = raisingSource{Source: srcs[v], once: once, floor: floor, v: kth}
				}
			}
			out, err := Run(context.Background(), &ReduceRequest{
				Query: q, Srcs: srcs, Grans: grans, Plan: topbuckets.Listed(tb.Selected), K: k, Shared: floor,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
				t.Fatalf("k %d: got %v, want %v", k, scoresOf(out.Results), scoresOf(exact))
			}
			return out.Locals[0]
		}
		st, seeded := run(NewSharedFloor(0), true), run(NewSharedFloor(kth), false)
		if st.ProbeRounds != 1 || st.FloorUsed != kth {
			t.Fatalf("k %d: %d rungs, answering floor %g; want 1 rung and the certified floor %g", k, st.ProbeRounds, st.FloorUsed, kth)
		}
		if st.TuplesExamined != seeded.TuplesExamined {
			t.Fatalf("k %d: examined %d tuples, %d with the floor certified from the start", k, st.TuplesExamined, seeded.TuplesExamined)
		}
	}
}
