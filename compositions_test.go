package tkij

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// The composition matrix: the paper's contract — the returned top-k is
// the nested-loop top-k — checked with the serving features combined.
// A configuration picks one value on each axis:
//
//   - restore: a built engine, a heap restore, an mmap restore, or a
//     restore of a base snapshot plus recorded delta sections;
//   - runner: the local pass, or 3 in-process shard workers;
//   - submit: direct Execute, or a Server with 8 goroutines, so that
//     every query (plan key) sees concurrent duplicate Submits;
//   - plan cache: on or off;
//   - mutation: none, the append batches applied live, or the batches
//     applied live with every query subscribed.
//
// At every epoch a configuration reaches, each of the 20 queries (the
// ten Table-1 shapes at P1 and at P2) is answered and checked: every
// result rescored by Query.Score, the score sequence equal to
// Exhaustive's at that epoch, the pinned epoch the expected one, and a
// local answer equal (reflect.DeepEqual) to the reference
// configuration's — built, local, direct, plan cache on — at that epoch.
// A subscription's materialized top-k after each append equals a fresh
// execution at that epoch, and no configuration leaves a store view
// pinned. Sharded answers compare by score only, until the join's answer
// is canonical among ties (ROADMAP item 1). The full product runs by
// default; -short runs a pairwise covering array (every pair of axis
// values in some configuration).
func TestCompositions(t *testing.T) {
	f := newCompFixture(t)
	configs := compProduct()
	if testing.Short() {
		configs = compPairwise
		requirePairwise(t, configs)
	}
	for _, c := range configs {
		t.Run(c.String(), func(t *testing.T) { f.run(t, c) })
	}
}

const (
	compN        = 60
	compK        = 20
	compGranules = 8
	// compDeltas is the number of append batches a delta restore
	// replays from its snapshot; the rest it appends live.
	compDeltas = 2
	// compSubmitters is the Server goroutine count; each query is
	// submitted by compSubmitters/compDup of them at once.
	compSubmitters = 8
	compDup        = 4
)

type compRestore int

const (
	restoreBuilt compRestore = iota
	restoreHeap
	restoreMmap
	restoreDelta
)

type compMutation int

const (
	mutateNone compMutation = iota
	mutateLive
	mutateSubscribed
)

// compConfig is one configuration of the matrix.
type compConfig struct {
	restore  compRestore
	sharded  bool
	served   bool
	noCache  bool
	mutation compMutation
}

func (c compConfig) String() string {
	runner, submit, cache := "local", "direct", "cache"
	if c.sharded {
		runner = "shards"
	}
	if c.served {
		submit = "server"
	}
	if c.noCache {
		cache = "nocache"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s",
		[]string{"built", "heap", "mmap", "delta"}[c.restore], runner, submit, cache,
		[]string{"static", "live", "subscribed"}[c.mutation])
}

// axes returns the configuration's value on each axis, in the order
// restore, runner, submit, plan cache, mutation.
func (c compConfig) axes() [5]int {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return [5]int{int(c.restore), b(c.sharded), b(c.served), b(c.noCache), int(c.mutation)}
}

var compAxisSizes = [5]int{4, 2, 2, 2, 3}

// compProduct is every configuration: 4 × 2 × 2 × 2 × 3.
func compProduct() []compConfig {
	var out []compConfig
	for r := restoreBuilt; r <= restoreDelta; r++ {
		for _, sharded := range []bool{false, true} {
			for _, served := range []bool{false, true} {
				for _, noCache := range []bool{false, true} {
					for m := mutateNone; m <= mutateSubscribed; m++ {
						out = append(out, compConfig{r, sharded, served, noCache, m})
					}
				}
			}
		}
	}
	return out
}

// compPairwise is a covering array of strength 2 over the axes: 12
// configurations (the fewest possible, 4 restores × 3 mutations) in
// which every pair of values of two axes appears.
var compPairwise = []compConfig{
	{restoreBuilt, false, true, true, mutateNone},
	{restoreBuilt, true, false, false, mutateLive},
	{restoreBuilt, false, true, true, mutateSubscribed},
	{restoreHeap, true, true, false, mutateNone},
	{restoreHeap, false, false, true, mutateLive},
	{restoreHeap, false, false, true, mutateSubscribed},
	{restoreMmap, true, true, true, mutateNone},
	{restoreMmap, false, false, false, mutateLive},
	{restoreMmap, true, false, false, mutateSubscribed},
	{restoreDelta, true, false, true, mutateNone},
	{restoreDelta, true, true, false, mutateLive},
	{restoreDelta, false, true, false, mutateSubscribed},
}

func requirePairwise(t *testing.T, configs []compConfig) {
	t.Helper()
	for i := range compAxisSizes {
		for j := i + 1; j < len(compAxisSizes); j++ {
			seen := map[[2]int]bool{}
			for _, c := range configs {
				a := c.axes()
				seen[[2]int{a[i], a[j]}] = true
			}
			if len(seen) != compAxisSizes[i]*compAxisSizes[j] {
				t.Fatalf("axes %d and %d: %d of %d value pairs covered", i, j, len(seen), compAxisSizes[i]*compAxisSizes[j])
			}
		}
	}
}

type compBatch struct {
	col int
	ivs []Interval
}

// compFixture is the data every configuration serves, and the answers
// it is checked against, per epoch: epoch e is the base collections
// plus the first e batches.
type compFixture struct {
	base    []*Collection
	batches []compBatch
	queries []*Query
	// snap is the base snapshot; deltaSnap is the base snapshot with the
	// first compDeltas batches recorded as delta sections.
	snap, deltaSnap string
	// oracle[e][qi] is Exhaustive's top-k; ref[e][qi] the reference
	// configuration's answer.
	oracle, ref [][][]Result
}

func newCompFixture(t *testing.T) *compFixture {
	f := &compFixture{}
	for i := 0; i < 3; i++ {
		f.base = append(f.base, UniformRange(fmt.Sprintf("C%d", i+1), compN, int64(i+1), 2000, 1, 100))
	}
	env := func(pp PairParams) QueryEnv { return QueryEnv{Params: pp, Avg: AvgLength(f.base...)} }
	for _, pp := range []PairParams{P1, P2} {
		for _, shape := range []string{"Qb,b", "Qo,o", "Qf,f", "Qs,s", "Qs,f,m", "Qf,b", "Qo,m", "Qs,m", "QjB,jB", "QsM,sM"} {
			q, err := QueryByName(shape, env(pp))
			if err != nil {
				t.Fatal(err)
			}
			f.queries = append(f.queries, q)
		}
	}

	f.oracle = [][][]Result{f.exhaustive(t, 0)}
	below := 0
	for _, want := range f.oracle[0] {
		if want[compK-1].Score < 1 {
			below++
		}
	}
	// Below the score ceiling ties are few, so a wrong tuple shows in
	// the scores; at it every answer scores 1 and hides one.
	if below < 10 {
		t.Fatalf("%d of %d queries have a k-th score below 1, want at least 10", below, len(f.queries))
	}
	f.batches = f.compBatches()
	for e := 1; e <= len(f.batches); e++ {
		f.oracle = append(f.oracle, f.exhaustive(t, e))
		// A batch that moves no answer would let a lost append pass.
		moved := 0
		for qi := range f.queries {
			if !sameScores(f.oracle[e][qi], f.oracle[e-1][qi]) {
				moved++
			}
		}
		if moved < 3 {
			t.Fatalf("batch %d moves the top-k scores of %d queries, want at least 3", e, moved)
		}
	}

	dir := t.TempDir()
	f.snap = filepath.Join(dir, "base.tkij")
	f.deltaSnap = filepath.Join(dir, "delta.tkij")
	built, err := NewEngine(f.colsAt(0), Options{Granules: compGranules, K: compK})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveSnapshot(f.snap); err != nil {
		t.Fatal(err)
	}
	if err := built.SaveSnapshot(f.deltaSnap); err != nil {
		t.Fatal(err)
	}
	built.Close()
	for _, b := range f.batches[:compDeltas] {
		if _, err := AppendSnapshotDelta(f.deltaSnap, b.col, b.ivs); err != nil {
			t.Fatal(err)
		}
	}

	// The reference configuration's answers at every epoch.
	e, err := NewEngine(f.colsAt(0), Options{Granules: compGranules, K: compK})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for epoch := 0; epoch <= len(f.batches); epoch++ {
		if epoch > 0 {
			b := f.batches[epoch-1]
			if _, err := e.Append(b.col, slices.Clone(b.ivs)); err != nil {
				t.Fatal(err)
			}
		}
		var answers [][]Result
		for _, q := range f.queries {
			rep, err := e.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, rep.Results)
		}
		f.ref = append(f.ref, answers)
	}
	return f
}

// exhaustive returns Exhaustive's answer to every query at epoch e.
func (f *compFixture) exhaustive(t *testing.T, e int) [][]Result {
	cols := f.colsAt(e)
	var answers [][]Result
	for _, q := range f.queries {
		want, err := Exhaustive(q, cols[:q.NumVertices], compK)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < compK {
			t.Fatalf("%s at epoch %d: %d results, want %d", q.Name, e, len(want), compK)
		}
		answers = append(answers, want)
	}
	return answers
}

func sameScores(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool { return x.Score == y.Score })
}

// compBatches derives the three append batches from the base data and
// its answers, about 10 intervals each and one per collection, so that
// each moves some answers. The first two copy or abut intervals of
// another collection. The last extends the middle intervals of three
// best tuples at P1 with intervals that start with, inside or at the end
// of them and reach past the range's end: they widen the boundary
// granule, fall into buckets no epoch before had, and score a perfect
// second edge for Qs,s, Qo,o and Qo,m.
func (f *compFixture) compBatches() []compBatch {
	var out []compBatch
	for b := 0; b < 2; b++ {
		other := f.base[(b+1)%3].Items
		var ivs []Interval
		for i := 0; i < 10; i++ {
			src := other[(7*i+3*b)%len(other)]
			iv := Interval{ID: int64(10000*(b+1) + i), Start: src.Start, End: src.End}
			if i%2 == 1 {
				iv.Start, iv.End = src.End, src.End+src.End-src.Start
			}
			ivs = append(ivs, iv)
		}
		out = append(out, compBatch{b, ivs})
	}
	var ivs []Interval
	for _, shape := range []int{3, 1, 6} { // Qs,s, Qo,o and Qo,m at P1
		y := f.oracle[0][shape][0].Tuple[1]
		for _, start := range []int64{y.Start, (y.Start + y.End) / 2, y.End} {
			n := int64(len(ivs))
			ivs = append(ivs, Interval{ID: 30000 + n, Start: start, End: 2150 + 10*n})
		}
	}
	return append(out, compBatch{2, ivs})
}

// colsAt returns fresh copies of the collections at epoch e, which an
// engine may grow by its own appends.
func (f *compFixture) colsAt(e int) []*Collection {
	out := make([]*Collection, len(f.base))
	for i, c := range f.base {
		out[i] = NewCollection(c.Name, slices.Clone(c.Items))
	}
	for _, b := range f.batches[:e] {
		out[b.col].Items = append(out[b.col].Items, b.ivs...)
	}
	return out
}

// open builds or restores the configuration's engine and returns it
// with the epoch it starts at.
func (f *compFixture) open(t *testing.T, c compConfig) (*Engine, int) {
	t.Helper()
	opts := Options{Granules: compGranules, K: compK, PlanCache: PlanCacheOptions{Disabled: c.noCache}}
	if c.sharded {
		opts.Shards = 3
	}
	var (
		e     *Engine
		err   error
		start int
	)
	switch c.restore {
	case restoreBuilt:
		e, err = NewEngine(f.colsAt(0), opts)
	case restoreHeap:
		e, err = OpenEngine(f.colsAt(0), f.snap, opts)
	case restoreMmap:
		opts.Mmap = true
		e, err = OpenEngine(f.colsAt(0), f.snap, opts)
	case restoreDelta:
		start = compDeltas
		e, err = OpenEngine(f.colsAt(start), f.deltaSnap, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	if c.restore == restoreMmap && !e.Mapped() {
		t.Fatal("mmap restore is not mapped")
	}
	return e, start
}

// served returns the indexes of the queries the configuration
// answers: all 20 locally. A sharded configuration answers each shape
// once, at P1 and P2 alternately, starting at P1 or P2 by the
// configuration's parity; across the product every query runs sharded
// on every other axis value. This halves the matrix's most expensive
// cells.
func (f *compFixture) served(c compConfig) []int {
	var qs []int
	for qi := range f.queries {
		shape, params := qi%10, qi/10
		if !c.sharded || (shape+int(c.restore)+int(c.mutation))%2 == params {
			qs = append(qs, qi)
		}
	}
	return qs
}

// run serves the configuration through every epoch it reaches and
// checks each answer.
func (f *compFixture) run(t *testing.T, c compConfig) {
	e, start := f.open(t, c)
	defer e.Close()
	qs := f.served(c)
	var srv *Server
	if c.served || c.mutation == mutateSubscribed {
		srv = NewServer(e, ServerOptions{})
	}
	subs := map[int]*compSub{}
	if c.mutation == mutateSubscribed {
		for _, qi := range qs {
			s, err := srv.Subscribe(context.Background(), f.queries[qi], compK, SubscribeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			subs[qi] = &compSub{s: s, tk: NewSubscriptionTopK(compK)}
		}
	}

	last := start
	if c.mutation != mutateNone {
		last = len(f.batches)
	}
	for epoch := start; epoch <= last; epoch++ {
		if epoch > start {
			b := f.batches[epoch-1]
			if _, err := e.Append(b.col, slices.Clone(b.ivs)); err != nil {
				t.Fatal(err)
			}
		}
		fresh := f.round(t, c, e, srv, qs, epoch)
		for qi, s := range subs {
			s.await(t, epoch)
			what := fmt.Sprintf("%s (%s) subscription at epoch %d", f.queries[qi].Name, paramsName(qi), epoch)
			// Sharded cells compare scores only until the join's answer
			// is canonical among ties (ROADMAP item 1); tighten then.
			if c.sharded {
				requireScores(t, what, s.tk.Results, fresh[qi])
			} else if !reflect.DeepEqual(s.tk.Results, fresh[qi]) {
				t.Fatalf("%s differs from a fresh execution\npushed: %v\nfresh:  %v", what, s.tk.Results, fresh[qi])
			}
		}
	}

	for _, s := range subs {
		s.s.Close()
	}
	if srv != nil {
		srv.Close()
	}
	if live := e.StoreViewStats().Live; live != 0 {
		t.Fatalf("%d store views still pinned after the configuration", live)
	}
}

// round answers the queries qs at epoch and checks each answer; it
// returns the answers by query index.
func (f *compFixture) round(t *testing.T, c compConfig, e *Engine, srv *Server, qs []int, epoch int) map[int][]Result {
	t.Helper()
	answers := map[int][]Result{}
	if !c.served {
		for _, qi := range qs {
			rep, err := e.Execute(context.Background(), f.queries[qi])
			if err != nil {
				t.Fatalf("%s at epoch %d: %v", f.queries[qi].Name, epoch, err)
			}
			f.check(t, c, qi, epoch, rep)
			answers[qi] = rep.Results
		}
		return answers
	}
	// Submitter g sends qs[j] for every j ≡ g (mod compDup), in order, so
	// compSubmitters/compDup submitters send each query at once.
	reps := make([][]*Report, compSubmitters)
	errs := make([]error, compSubmitters)
	var wg sync.WaitGroup
	for g := 0; g < compSubmitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := g % compDup; j < len(qs); j += compDup {
				q := f.queries[qs[j]]
				rep, err := srv.Submit(context.Background(), q, nil)
				if err != nil {
					errs[g] = fmt.Errorf("%s at epoch %d: %w", q.Name, epoch, err)
					return
				}
				reps[g] = append(reps[g], rep)
			}
		}()
	}
	wg.Wait()
	for g := range reps {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, rep := range reps[g] {
			qi := qs[g%compDup+i*compDup]
			f.check(t, c, qi, epoch, rep)
			answers[qi] = rep.Results
		}
	}
	return answers
}

// check holds one answer to the contract at epoch.
func (f *compFixture) check(t *testing.T, c compConfig, qi, epoch int, rep *Report) {
	t.Helper()
	q := f.queries[qi]
	what := fmt.Sprintf("%s (%s) at epoch %d", q.Name, paramsName(qi), epoch)
	if rep.Epoch != int64(epoch) {
		t.Fatalf("%s: pinned epoch %d", what, rep.Epoch)
	}
	for i, r := range rep.Results {
		if s := q.Score(r.Tuple); s != r.Score {
			t.Fatalf("%s: result %d reports score %v, its tuple scores %v", what, i, r.Score, s)
		}
	}
	requireScores(t, what+" against Exhaustive", rep.Results, f.oracle[epoch][qi])
	if !c.sharded && !reflect.DeepEqual(rep.Results, f.ref[epoch][qi]) {
		t.Fatalf("%s differs from the reference configuration\ngot:  %v\nwant: %v", what, rep.Results, f.ref[epoch][qi])
	}
}

func paramsName(qi int) string {
	if qi < 10 {
		return "P1"
	}
	return "P2"
}

// requireScores fails unless got and want carry the same score sequence.
func requireScores(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			t.Fatalf("%s: rank %d scores %v, want %v\ngot:  %v\nwant: %v", what, i, got[i].Score, want[i].Score, got, want)
		}
	}
}

// compSub is one subscription and its client-side materialized top-k.
type compSub struct {
	s  *Subscription
	tk *SubscriptionTopK
}

// await applies the subscription's deltas until its top-k reaches epoch.
func (s *compSub) await(t *testing.T, epoch int) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for s.tk.Epoch < int64(epoch) || s.tk.Seq == 0 {
		select {
		case d, ok := <-s.s.Deltas():
			if !ok {
				t.Fatalf("subscription closed before epoch %d: %v", epoch, s.s.Err())
			}
			if err := s.tk.Apply(d); err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("no delta reached epoch %d (at epoch %d)", epoch, s.tk.Epoch)
		}
	}
	if s.tk.Epoch != int64(epoch) {
		t.Fatalf("subscription at epoch %d, want %d", s.tk.Epoch, epoch)
	}
}
