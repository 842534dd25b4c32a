package topbuckets

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// tupleKey is a test-local map key for a combination's bucket tuple:
// each vertex's (Col, StartG, EndG) as fixed-width big-endian words, so
// that byte order is compareTuples order.
func tupleKey(c Combo) string {
	k := make([]byte, 0, 24*len(c.Buckets))
	for _, b := range c.Buckets {
		k = binary.BigEndian.AppendUint64(k, uint64(b.Col))
		k = binary.BigEndian.AppendUint64(k, uint64(b.StartG))
		k = binary.BigEndian.AppendUint64(k, uint64(b.EndG))
	}
	return string(k)
}

func mkCombo(lb, ub, nbRes float64, id int) Combo {
	return Combo{
		Buckets: []stats.Bucket{{Col: 0, StartG: id, EndG: id, Count: int(nbRes)}},
		LB:      lb, UB: ub, NbRes: nbRes,
	}
}

// Definition 2: for every pruned combination ω there must be selected
// combinations with LB >= ω.UB totalling at least k results.
func checkDefinition2(t *testing.T, k int, all, selected []Combo) {
	t.Helper()
	sel := make(map[string]bool, len(selected))
	for _, c := range selected {
		sel[tupleKey(c)] = true
	}
	for _, w := range all {
		if sel[tupleKey(w)] {
			continue
		}
		var covered float64
		for _, s := range selected {
			if s.LB >= w.UB {
				covered += s.NbRes
			}
		}
		if covered < float64(k) {
			t.Fatalf("pruned combo (UB=%g) lacks certificate: only %g results with LB >= UB in Ωk,S (k=%d)", w.UB, covered, k)
		}
	}
}

func TestSelectListDefinition2Random(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(50)
		n := 1 + rng.Intn(60)
		all := make([]Combo, n)
		for i := range all {
			ub := rng.Float64()
			lb := ub * rng.Float64()
			all[i] = mkCombo(lb, ub, float64(1+rng.Intn(30)), i)
		}
		selected := SelectList(k, all)
		checkDefinition2(t, k, all, selected)
	}
}

func TestSelectListSingleDominantCombo(t *testing.T) {
	// The Qb,b situation: one combination with LB = UB = 1 holding far
	// more than k results must suffice alone.
	all := []Combo{
		mkCombo(1, 1, 1e6, 0),
		mkCombo(0.2, 0.9, 1e6, 1),
		mkCombo(0.1, 0.8, 1e6, 2),
	}
	selected := SelectList(100, all)
	if len(selected) != 1 {
		t.Fatalf("selected %d combos, want 1 (the dominant one)", len(selected))
	}
	if selected[0].LB != 1 {
		t.Fatalf("selected wrong combo: %+v", selected[0])
	}
	checkDefinition2(t, 100, all, selected)
}

func TestSelectListTieAtThreshold(t *testing.T) {
	// Saturated scores: several combos with UB = 1 but differing LB.
	// The LB cover must be selected, not arbitrary UB-tied filler.
	all := []Combo{
		mkCombo(1, 1, 50, 0), // certificate combo
		mkCombo(0, 1, 50, 1), // same UB, useless LB
		mkCombo(0, 1, 50, 2),
		mkCombo(0.5, 0.6, 10, 3),
	}
	selected := SelectList(40, all)
	checkDefinition2(t, 40, all, selected)
	found := false
	for _, c := range selected {
		if c.LB == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("LB=1 certificate combo not selected")
	}
}

func TestSelectListFewerThanKResults(t *testing.T) {
	all := []Combo{mkCombo(0.9, 1, 3, 0), mkCombo(0.1, 0.5, 2, 1)}
	selected := SelectList(100, all)
	// Everything must be kept: we cannot certify pruning anything.
	if len(selected) != 2 {
		t.Fatalf("selected %d, want 2", len(selected))
	}
}

// evictingSelect is the selection as Algorithm 1's cover states it,
// offered one combination at a time in the given order: the cover keeps
// every combination offered and evicts its lowest LB — among equal LBs
// the smallest bucket tuple — while the rest still covers k results.
// kthResLB is the cover's least LB, and Ω_k,S the cover plus every
// combination whose UB clears kthResLB.
func evictingSelect(k int, offered []Combo) ([]Combo, float64) {
	var cover []Combo
	total := 0.0
	last := func() int { // the cover's lowest LB, smallest tuple among ties
		j := 0
		for i, c := range cover {
			if c.LB < cover[j].LB || (c.LB == cover[j].LB && compareTuples(c.Buckets, cover[j].Buckets) < 0) {
				j = i
			}
		}
		return j
	}
	for _, c := range offered {
		cover = append(cover, c)
		total += c.NbRes
		for len(cover) > 1 {
			j := last()
			if total-cover[j].NbRes < float64(k) {
				break
			}
			total -= cover[j].NbRes
			cover = append(cover[:j], cover[j+1:]...)
		}
	}
	t := cover[last()].LB
	inCover := make(map[string]bool)
	for _, c := range cover {
		inCover[tupleKey(c)] = true
	}
	var out []Combo
	for _, c := range offered {
		if c.UB > t || inCover[tupleKey(c)] {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, byUB)
	return out, t
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSelection(t testing.TB, what string, got, want []Combo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: selected %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if tupleKey(g) != tupleKey(w) || math.Float64bits(g.LB) != math.Float64bits(w.LB) ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) || g.NbRes != w.NbRes {
			t.Fatalf("%s: selection mismatch at %d: %+v, want %+v", what, i, g, w)
		}
		// A list bounded by LooseBounds carries the pair UBs the join
		// reads: a plan's must be the same bits.
		if w.EdgeUB != nil && !sameBits(g.EdgeUB, w.EdgeUB) {
			t.Fatalf("%s: edge UBs at %d: %v, want %v", what, i, g.EdgeUB, w.EdgeUB)
		}
	}
}

// SelectWithThreshold selects what the evicting cover selects, in the
// same order and at the same threshold, whatever order the combinations
// are offered in — also under coarse scores that tie LBs across many
// combinations, where the tuple decides which of them the cover keeps.
func TestSelectListMatchesEvictingCover(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(80)
		all := make([]Combo, n)
		for i := range all {
			ub := float64(rng.Intn(11)) / 10 // coarse scores force ties
			lb := ub * float64(rng.Intn(11)) / 10
			all[i] = mkCombo(lb, ub, float64(1+rng.Intn(20)), i)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		got, gotT := SelectWithThreshold(k, all)
		want, wantT := evictingSelect(k, all)
		what := fmt.Sprintf("trial %d, k=%d", trial, k)
		sameSelection(t, what, got, want)
		if gotT != wantT {
			t.Fatalf("%s: kthResLB %g, want %g", what, gotT, wantT)
		}
	}
}

// --- strategy tests over real data ---

func synthCollections(n int, perCol int, seed int64) []*interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, n)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(10000)
			c.Add(interval.Interval{ID: int64(j), Start: s, End: s + 1 + rng.Int63n(99)})
		}
		cols[i] = c
	}
	return cols
}

func matricesFor(t *testing.T, cols []*interval.Collection, g int) []*stats.Matrix {
	t.Helper()
	ms, _, err := stats.Collect(cols, g, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// Every strategy must select a set that covers the exhaustive top-k: for
// each of the true top-k tuples, the combination containing it must be
// selected.
func TestStrategiesCoverExhaustiveTopK(t *testing.T) {
	cols := synthCollections(2, 60, 3)
	ms := matricesFor(t, cols, 6)
	pp := scoring.P1
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Meets(pp)}}, scoring.Avg{})
	const k = 25

	// Exhaustive scoring.
	type scored struct {
		score float64
		b0    stats.BucketKey
		b1    stats.BucketKey
	}
	var allResults []scored
	for _, x := range cols[0].Items {
		for _, y := range cols[1].Items {
			l0, lp0 := ms[0].Gran.BucketOf(x)
			l1, lp1 := ms[1].Gran.BucketOf(y)
			allResults = append(allResults, scored{
				score: q.Score([]interval.Interval{x, y}),
				b0:    stats.BucketKey{Col: 0, StartG: l0, EndG: lp0},
				b1:    stats.BucketKey{Col: 1, StartG: l1, EndG: lp1},
			})
		}
	}
	sort.Slice(allResults, func(i, j int) bool { return allResults[i].score > allResults[j].score })

	for _, strat := range []Strategy{Loose, BruteForce, TwoPhase} {
		res, err := Run(q, ms, k, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		selected := make(map[[2]stats.BucketKey]bool)
		for _, c := range res.Selected {
			selected[[2]stats.BucketKey{c.Buckets[0].Key(), c.Buckets[1].Key()}] = true
		}
		// Any result strictly better than the (k+1)-th score must be in a
		// selected combo; ties at the k-th score are interchangeable.
		kth := allResults[k-1].score
		for i := 0; i < k; i++ {
			r := allResults[i]
			if r.score > kth || (r.score == kth && i < k) {
				if r.score > kth && !selected[[2]stats.BucketKey{r.b0, r.b1}] {
					t.Fatalf("%s: top-%d result (score %g) in pruned combo", strat, i+1, r.score)
				}
			}
		}
		// Count coverage: at least k results with score >= kth must be
		// inside selected combos.
		covered := 0
		for _, r := range allResults {
			if r.score >= kth && selected[[2]stats.BucketKey{r.b0, r.b1}] {
				covered++
			}
		}
		if covered < k {
			t.Fatalf("%s: only %d results with score >= kth covered, want >= %d", strat, covered, k)
		}
		if res.PrunedFraction() < 0 || res.PrunedFraction() > 1 {
			t.Fatalf("%s: pruned fraction %g", strat, res.PrunedFraction())
		}
	}
}

// brute-force bounds must never be looser than loose bounds, and
// two-phase must agree with brute-force on tight bounds (Figure 6).
func TestLooseVsTightBounds(t *testing.T) {
	cols := synthCollections(3, 50, 7)
	ms := matricesFor(t, cols, 4)
	env := query.Env{Params: scoring.P1}
	q := query.Qss(env)
	const k = 10

	loose, err := Run(q, ms, k, Options{Strategy: Loose})
	if err != nil {
		t.Fatal(err)
	}
	brute, err := Run(q, ms, k, Options{Strategy: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(q, ms, k, Options{Strategy: TwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	if loose.PairSolverCalls == 0 || brute.TightSolverCalls == 0 || two.TightSolverCalls == 0 {
		t.Fatal("solver call counters not maintained")
	}
	// Index loose bounds by combo identity.
	looseUB := make(map[string]float64)
	for _, c := range loose.Selected {
		looseUB[tupleKey(c)] = c.UB
	}
	for _, c := range brute.Selected {
		if lu, ok := looseUB[tupleKey(c)]; ok && c.UB > lu+1e-9 {
			t.Fatalf("tight UB %g exceeds loose UB %g", c.UB, lu)
		}
	}
	// two-phase refines: selected results never exceed loose's.
	if two.SelectedResults > loose.SelectedResults+1e-9 {
		t.Fatalf("two-phase selected %g results, loose %g — refinement should not grow the set",
			two.SelectedResults, loose.SelectedResults)
	}
}

func TestRunErrors(t *testing.T) {
	cols := synthCollections(2, 20, 1)
	ms := matricesFor(t, cols, 3)
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Before(scoring.P1)}}, scoring.Avg{})
	if _, err := Run(q, ms, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(q, ms[:1], 5, Options{}); err == nil {
		t.Error("matrix count mismatch accepted")
	}
	if _, err := Run(q, ms, 5, Options{Strategy: BruteForce, MaxCombos: 1}); err == nil {
		t.Error("MaxCombos guard did not fire")
	}
	if _, err := Run(q, ms, 5, Options{Strategy: Strategy(42)}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if Loose.String() != "loose" || BruteForce.String() != "brute-force" || TwoPhase.String() != "two-phase" {
		t.Error("strategy names wrong")
	}
}

func TestEnumerateOrderAndCount(t *testing.T) {
	lists := [][]stats.Bucket{
		{{Col: 0, StartG: 0}, {Col: 0, StartG: 1}},
		{{Col: 1, StartG: 0}, {Col: 1, StartG: 1}, {Col: 1, StartG: 2}},
	}
	var seen [][2]int
	enumerate(lists, func(bs []stats.Bucket) {
		seen = append(seen, [2]int{bs[0].StartG, bs[1].StartG})
	})
	if len(seen) != 6 {
		t.Fatalf("enumerated %d, want 6", len(seen))
	}
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("order mismatch at %d: %v", i, seen)
		}
	}
	if got := comboCount(lists); got != 6 {
		t.Errorf("comboCount = %g", got)
	}

	// The selection tie-break compares bucket tuples numerically: the
	// byte order of their fixed-width encoding.
	rng := rand.New(rand.NewSource(11))
	tuple := func() []stats.Bucket {
		bs := make([]stats.Bucket, 3)
		for v := range bs {
			// Few distinct values per field, so that ties run deep
			// into the tuple; the high values cross the byte boundaries.
			pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
			bs[v] = stats.Bucket{Col: pick(0, 1, 255), StartG: pick(0, 255, 256, 65535), EndG: pick(1, 256, 65535)}
		}
		return bs
	}
	for i := 0; i < 2000; i++ {
		a, b := Combo{Buckets: tuple()}, Combo{Buckets: tuple()}
		if got, want := compareTuples(a.Buckets, b.Buckets), strings.Compare(tupleKey(a), tupleKey(b)); got != want {
			t.Fatalf("compareTuples(%v, %v) = %d, Key order %d", a.Buckets, b.Buckets, got, want)
		}
	}
}

// A loose run's allocations are O(|Ω_k,S|), not O(|Ω|): the walk
// queues, bounds and drops bucket tuples without allocating per tuple,
// and the pair-bound solves reuse their search scratch.
func TestLooseRunAllocBudget(t *testing.T) {
	cols := synthCollections(3, 3000, 41)
	ms := matricesFor(t, cols, 20)
	q := query.Qom(query.Env{Params: scoring.P1})
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = Run(q, ms, 100, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	})
	if res.TotalCombos < 50000 {
		t.Fatalf("|Ω| = %g — too few combinations for a per-combination allocation to show", res.TotalCombos)
	}
	if allocs >= res.TotalCombos/4 {
		t.Fatalf("Run allocates %.0f objects over |Ω| = %g (%d selected), want < |Ω|/4",
			allocs, res.TotalCombos, len(res.Selected))
	}
	t.Logf("Run: %.0f allocations, |Ω| = %g, %d selected", allocs, res.TotalCombos, len(res.Selected))
}

// Tight bounds do not depend on how combinations are split across
// workers — each worker's solves use scratch no other goroutine touches —
// and plans walked or read from concurrent callers agree bit for bit.
func TestSolverScratchConcurrent(t *testing.T) {
	cols := synthCollections(3, 200, 43)
	ms := matricesFor(t, cols, 5)
	q := query.Qsfm(query.Env{Params: scoring.P1})
	lists, err := validateInputs(q, ms, 10)
	if err != nil {
		t.Fatal(err)
	}
	var all []Combo
	enumerate(lists, func(bs []stats.Bucket) {
		all = append(all, Combo{Buckets: append([]stats.Bucket(nil), bs...), NbRes: nbRes(bs)})
	})
	one := append([]Combo(nil), all...)
	eight := append([]Combo(nil), all...)
	nodes1 := TightenBounds(q, ms, one, Options{Workers: 1})
	nodes8 := TightenBounds(q, ms, eight, Options{Workers: 8})
	if nodes1 != nodes8 {
		t.Fatalf("8 workers opened %d nodes, 1 worker %d", nodes8, nodes1)
	}
	for i := range one {
		if math.Float64bits(one[i].LB) != math.Float64bits(eight[i].LB) || math.Float64bits(one[i].UB) != math.Float64bits(eight[i].UB) {
			t.Fatalf("combination %d: 8 workers bound [%v,%v], 1 worker [%v,%v]", i, eight[i].LB, eight[i].UB, one[i].LB, one[i].UB)
		}
	}

	// Plans walked by concurrent goroutines, and one plan read by
	// concurrent readers, agree with a plan drained alone.
	want, err := Run(q, ms, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewPlan(q, ms, 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, err := Run(q, ms, 10, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Selected, want.Selected) {
				t.Error("a plan walked beside others differs from the sequential one")
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				c, ok := shared.At(i)
				if !ok {
					if i != len(want.Selected) {
						t.Errorf("a shared plan ended after %d combinations, want %d", i, len(want.Selected))
					}
					return
				}
				if !reflect.DeepEqual(c, want.Selected[i]) {
					t.Errorf("combination %d read from a shared plan differs", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
