package plancache

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// TestPlanSingleFlight: concurrent calls for one key and epoch plan it
// once — the first plan, the promotion after an interior append, and
// the re-plan after an append that widens a boundary granule — and
// every caller, whichever of two isomorphic labelings it uses, gets
// what a sequential run of the same calls returns. A failing flight
// hands its error to its waiters and caches nothing.
func TestPlanSingleFlight(t *testing.T) {
	q, ms := testData(t)
	relabeled := mustQuery(t, "meets-relabeled", 2, []query.Edge{
		{From: 1, To: 0, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	// labelings returns one request per labeling of the query over ms:
	// as written, and with its two vertices swapped.
	labelings := func(ms []*stats.Matrix, epoch int64) [2]Request {
		swapped := request(relabeled, []*stats.Matrix{ms[1].WithCol(0), ms[0].WithCol(1)}, 5, epoch)
		swapped.VertexCols = []int{1, 0}
		return [2]Request{request(q, ms, 5, epoch), swapped}
	}
	grown := []*stats.Matrix{ms[0].Clone(), ms[1]}
	if err := stats.ApplyUpdate(grown[0], []interval.Interval{{ID: 900, Start: 50, End: 58}}); err != nil {
		t.Fatal(err)
	}
	widened := []*stats.Matrix{grown[0].Clone(), ms[1]}
	if err := stats.ApplyUpdate(widened[0], []interval.Interval{{ID: 901, Start: -500, End: -40}}); err != nil {
		t.Fatal(err)
	}
	first, second, third := labelings(ms, 0), labelings(grown, 1), labelings(widened, 2)
	k0, _, _ := Canonicalize(first[0].Query, first[0].VertexCols, 5, granulations(first[0].Matrices))
	k1, _, _ := Canonicalize(first[1].Query, first[1].VertexCols, 5, granulations(first[1].Matrices))
	if k0 != k1 {
		t.Fatal("the two labelings do not share a plan key")
	}

	// The sequential reference: each labeling planned in turn, in the
	// order the concurrent run's leader and waiters take.
	seq := New(Options{})
	var want [3][2]*Planned
	for round, reqs := range [][2]Request{first, second, third} {
		for l, req := range reqs {
			p, err := seq.Plan(req)
			if err != nil {
				t.Fatal(err)
			}
			want[round][l] = p
		}
	}

	// hold is the leading call's hook: it holds the flight open until
	// every other caller waits on it.
	c := New(Options{})
	var waiters int64
	entered := make(chan struct{}, 1)
	hold := func() error {
		select {
		case entered <- struct{}{}:
		default:
		}
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Waits < waiters {
			if time.Now().After(deadline) {
				t.Error("callers never joined the flight")
				return nil
			}
			runtime.Gosched()
		}
		return nil
	}
	c.onLead = hold
	// flightOf runs 16 concurrent calls of reqs' two labelings, the first
	// one leading, and returns each result by labeling.
	const callers = 16
	flightOf := func(reqs [2]Request) ([]*Planned, []error) {
		waiters += callers - 1
		got, errs := make([]*Planned, callers), make([]error, callers)
		var wg sync.WaitGroup
		call := func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.Plan(reqs[i%2])
		}
		wg.Add(callers)
		go call(0)
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			t.Fatal("no call led a flight")
		}
		for i := 1; i < callers; i++ {
			go call(i)
		}
		wg.Wait()
		return got, errs
	}
	check := func(round int, outcome Outcome, got []*Planned, errs []error) {
		t.Helper()
		for i, p := range got {
			if errs[i] != nil {
				t.Fatalf("round %d call %d: %v", round, i, errs[i])
			}
			w := want[round][i%2]
			if !reflect.DeepEqual(p.Plan.Drain(), w.Plan.Drain()) ||
				p.Plan.KthResLB != w.Plan.KthResLB {
				t.Fatalf("round %d call %d (labeling %d): plan differs from the sequential one", round, i, i%2)
			}
			if i == 0 && (p.Outcome != outcome || p.Waited) {
				t.Fatalf("round %d: leader outcome %v waited %v, want %v without waiting", round, p.Outcome, p.Waited, outcome)
			}
			if i > 0 && (p.Outcome != Hit || !p.Waited) {
				t.Fatalf("round %d call %d: outcome %v waited %v, want a hit after waiting", round, i, p.Outcome, p.Waited)
			}
		}
	}

	got, errs := flightOf(first)
	check(0, Miss, got, errs)
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Waits != callers-1 {
		t.Fatalf("first plan: stats %+v, want 1 miss and %d hits after waiting", st, callers-1)
	}
	got, errs = flightOf(second)
	check(1, Revalidated, got, errs)
	if st := c.Stats(); st.Misses != 1 || st.Revalidations != 1 || st.Hits != 2*(callers-1) {
		t.Fatalf("after the append: stats %+v, want one revalidation and no new miss", st)
	}
	got, errs = flightOf(third)
	check(2, Miss, got, errs)
	if st := c.Stats(); st.Misses != 2 || st.Revalidations != 1 || st.Hits != 3*(callers-1) || st.Waits != 3*(callers-1) {
		t.Fatalf("after the widening: stats %+v, want one more miss and %d more hits after waiting", st, callers-1)
	}

	// A failing leader: its waiters get its error, and the key stays
	// unplanned for the next call.
	fresh := labelings(ms, 0)
	errLeader := errors.New("the leader failed")
	c = New(Options{})
	c.onLead = func() error {
		hold()
		return errLeader
	}
	waiters = 0
	_, errs = flightOf(fresh)
	for i, err := range errs {
		if !errors.Is(err, errLeader) {
			t.Fatalf("call %d of a failing flight returned %v, want the leader's error %v", i, err, errLeader)
		}
	}
	c.onLead = nil
	p, err := c.Plan(first[1])
	if err != nil {
		t.Fatalf("the call after a failed flight: %v", err)
	}
	if p.Outcome != Miss || p.Waited {
		t.Fatalf("the call after a failed flight: outcome %v waited %v, want a fresh miss", p.Outcome, p.Waited)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("after a failed flight and a good call: stats %+v, want one entry from two misses", st)
	}
}
