package store

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/rtree"
	"tkij/internal/stats"
)

// naiveSearch is the reference the flat kernel is checked against: the
// R-tree's exact visit semantics (closed float box over (start, end)
// points), by linear scan.
func naiveSearch(items []interval.Interval, box rtree.Rect) []int32 {
	var out []int32
	for i, iv := range items {
		if box.Contains(rtree.Point{X: float64(iv.Start), Y: float64(iv.End), Ref: int32(i)}) {
			out = append(out, int32(i))
		}
	}
	return out
}

func flatSearchAll(idx *flatIndex, items []interval.Interval, box rtree.Rect) []int32 {
	var out []int32
	idx.search(box, items, func(ref int32) bool {
		out = append(out, ref)
		return true
	})
	slices.Sort(out)
	return out
}

func randItems(rng *rand.Rand, n int) []interval.Interval {
	items := make([]interval.Interval, n)
	for i := range items {
		s := rng.Int63n(10_000) - 5_000
		items[i] = interval.Interval{ID: int64(i), Start: s, End: s + rng.Int63n(400)}
	}
	return items
}

// The kernel must agree with a naive scan on every predicate-derived
// box class the local join produces: overlap-style boxes constraining
// both axes, before-style boxes constraining only the end axis, and
// after-style boxes constraining only the start axis — plus the
// unconstrained and empty degenerate cases.
func TestFlatIndexMatchesNaiveScanPerPredicateClass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf := math.Inf(1)
	for round := 0; round < 200; round++ {
		items := randItems(rng, 1+rng.Intn(300))
		idx := buildFlatIndex(items)
		lo := float64(rng.Int63n(12_000) - 6_000)
		hi := lo + float64(rng.Int63n(3_000))
		lo2 := float64(rng.Int63n(12_000) - 6_000)
		hi2 := lo2 + float64(rng.Int63n(3_000))
		// Fractional bounds exercise the ceil/floor clamping.
		if round%3 == 0 {
			lo += 0.5
			hi += 0.25
		}
		boxes := map[string]rtree.Rect{
			"overlap (both axes)": {MinX: lo, MaxX: hi, MinY: lo2, MaxY: hi2},
			"before (end axis)":   {MinX: -inf, MaxX: inf, MinY: lo, MaxY: hi},
			"after (start axis)":  {MinX: lo, MaxX: hi, MinY: -inf, MaxY: inf},
			"everything":          rtree.Everything(),
			"empty":               {MinX: 1, MaxX: 0, MinY: -inf, MaxY: inf},
		}
		for class, box := range boxes {
			want := naiveSearch(items, box)
			got := flatSearchAll(idx, items, box)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, %s box %+v: flat kernel returned %d refs, naive scan %d\nflat:  %v\nnaive: %v",
					round, class, box, len(got), len(want), got, want)
			}
		}
	}
}

// Early termination: fn returning false must stop the probe and
// propagate false, exactly like the R-tree path.
func TestFlatIndexStopsOnFalse(t *testing.T) {
	items := randItems(rand.New(rand.NewSource(3)), 100)
	idx := buildFlatIndex(items)
	calls := 0
	cont := idx.search(rtree.Everything(), items, func(int32) bool {
		calls++
		return calls < 5
	})
	if cont || calls != 5 {
		t.Fatalf("search continued=%t after %d calls; want stopped after 5", cont, calls)
	}
}

func TestGallop(t *testing.T) {
	a := []int64{-10, -10, -3, 0, 0, 0, 7, 42}
	cases := []struct {
		x      int64
		ge, gt int
	}{
		{-11, 0, 0}, {-10, 0, 2}, {-5, 2, 2}, {-3, 2, 3}, {0, 3, 6},
		{1, 6, 6}, {7, 6, 7}, {42, 7, 8}, {43, 8, 8},
		{math.MinInt64, 0, 0}, {math.MaxInt64, 8, 8},
	}
	for _, c := range cases {
		if got := gallopGE(a, c.x); got != c.ge {
			t.Errorf("gallopGE(%d) = %d, want %d", c.x, got, c.ge)
		}
		if got := gallopGT(a, c.x); got != c.gt {
			t.Errorf("gallopGT(%d) = %d, want %d", c.x, got, c.gt)
		}
	}
	if got := gallopGE(nil, 5); got != 0 {
		t.Errorf("gallopGE(empty) = %d", got)
	}
	// Cross-check against sort.Search on larger random inputs.
	rng := rand.New(rand.NewSource(9))
	b := make([]int64, 1000)
	for i := range b {
		b[i] = rng.Int63n(500)
	}
	slices.Sort(b)
	for i := 0; i < 500; i++ {
		x := rng.Int63n(520) - 10
		if got, want := gallopGE(b, x), sort.Search(len(b), func(i int) bool { return b[i] >= x }); got != want {
			t.Fatalf("gallopGE(%d) = %d, want %d", x, got, want)
		}
		if got, want := gallopGT(b, x), sort.Search(len(b), func(i int) bool { return b[i] > x }); got != want {
			t.Fatalf("gallopGT(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestBoxToInt(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		flo, fhi float64
		lo, hi   int64
		empty    bool
	}{
		{-inf, inf, math.MinInt64, math.MaxInt64, false},
		{1.5, 3.5, 2, 3, false},
		{-3.5, -1.5, -3, -2, false},
		{2, 2, 2, 2, false},
		{2.1, 2.9, 0, 0, true}, // no integer inside
		{5, 3, 0, 0, true},     // inverted box
		{-inf, 4.7, math.MinInt64, 4, false},
		{-0.5, inf, 0, math.MaxInt64, false},
	}
	for _, c := range cases {
		lo, hi, empty := boxToInt(c.flo, c.fhi)
		if empty != c.empty || (!empty && (lo != c.lo || hi != c.hi)) {
			t.Errorf("boxToInt(%v, %v) = (%d, %d, %t), want (%d, %d, %t)", c.flo, c.fhi, lo, hi, empty, c.lo, c.hi, c.empty)
		}
	}
}

// mappedFixture builds a small mapped store (flat kernel, no R-trees)
// over deterministic data, alongside the granulation it was bucketed
// under.
func mappedFixture(t *testing.T, region Region) (*Store, stats.Granulation, []MappedCol) {
	t.Helper()
	gran := stats.Granulation{Min: 0, Max: 999, G: 4}
	rng := rand.New(rand.NewSource(21))
	byKey := map[[2]int][]interval.Interval{}
	for i := 0; i < 400; i++ {
		s := rng.Int63n(900)
		iv := interval.Interval{ID: int64(i), Start: s, End: s + rng.Int63n(100)}
		l, lp := gran.BucketOf(iv)
		byKey[[2]int{l, lp}] = append(byKey[[2]int{l, lp}], iv)
	}
	col := MappedCol{Col: 0, Gran: gran}
	for k, items := range byKey {
		col.Buckets = append(col.Buckets, MappedBucket{StartG: k[0], EndG: k[1], Items: items})
	}
	// Deterministic order (map iteration is random): largest bucket
	// first, so Buckets[0] is a meaningful probe target.
	slices.SortFunc(col.Buckets, func(a, b MappedBucket) int {
		if d := len(b.Items) - len(a.Items); d != 0 {
			return d
		}
		if a.StartG != b.StartG {
			return a.StartG - b.StartG
		}
		return a.EndG - b.EndG
	})
	cols := []MappedCol{col}
	s, err := BuildMapped(cols, region)
	if err != nil {
		t.Fatal(err)
	}
	return s, gran, cols
}

// A mapped store must answer exactly like a built store over the same
// buckets: flat kernel vs R-tree, same refs.
func TestBuildMappedSearchMatchesTreePath(t *testing.T) {
	s, _, mcols := mappedFixture(t, nil)
	view := s.View()
	defer view.Release()
	rng := rand.New(rand.NewSource(5))
	for _, mb := range mcols[0].Buckets {
		h := view.Col(0).Bucket(mb.StartG, mb.EndG)
		items := h.Items()
		if len(items) != len(mb.Items) {
			t.Fatalf("bucket (%d,%d): %d items served, %d mapped", mb.StartG, mb.EndG, len(items), len(mb.Items))
		}
		for round := 0; round < 20; round++ {
			lo := float64(rng.Int63n(1100) - 50)
			box := rtree.Rect{MinX: lo, MaxX: lo + float64(rng.Int63n(300)),
				MinY: float64(rng.Int63n(500)), MaxY: float64(rng.Int63n(500) + 600)}
			var got []int32
			h.Search(box, func(ref int32) bool {
				got = append(got, ref)
				return true
			})
			slices.Sort(got)
			if want := naiveSearch(items, box); !slices.Equal(got, want) {
				t.Fatalf("bucket (%d,%d) box %+v: got %v, want %v", mb.StartG, mb.EndG, box, got, want)
			}
		}
	}
	snap := s.Snapshot()
	if snap.TreesBuilt != 0 {
		t.Fatalf("mapped store built %d R-trees", snap.TreesBuilt)
	}
	if snap.FlatIndexesBuilt == 0 {
		t.Fatal("mapped store built no flat indexes — the probes above used something else")
	}
}

// The warm probe path must be allocation-free with the instrumentation
// compiled in: once a bucket's index is memoized — the flat kernel on a
// mapped store, the R-tree on a heap-built one, the delta tree over an
// appended suffix — neither resolving the bucket to a handle (the handle
// is the epoch's bucket itself, not an adapter) nor probing a resolved
// handle allocates, and no probe builds a second index.
func TestWarmProbeAllocFree(t *testing.T) {
	mapped, _, mcols := mappedFixture(t, nil)
	mb := mcols[0].Buckets[0] // largest bucket
	heap, ms := buildStore(t, synthCols(1, 400, 21), 4)
	hb := ms[0].Buckets()[0]
	grown, gms := buildStore(t, synthCols(1, 400, 21), 4)
	gb := gms[0].Buckets()[0]
	first := grown.Col(0).BucketItems(gb.StartG, gb.EndG)[0]
	if _, err := grown.Append(0, []interval.Interval{{ID: 990001, Start: first.Start, End: first.End}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		index        string
		s            *Store
		startG, endG int
		built        func(Stats) int64 // builds of the index under test
	}{
		{"flat", mapped, mb.StartG, mb.EndG, func(st Stats) int64 { return st.FlatIndexesBuilt }},
		{"rtree", heap, hb.StartG, hb.EndG, func(st Stats) int64 { return st.TreesBuilt }},
		{"delta", grown, gb.StartG, gb.EndG, func(st Stats) int64 { return st.DeltaTreesBuilt }},
	} {
		t.Run(c.index, func(t *testing.T) {
			view := c.s.View()
			defer view.Release()
			box := rtree.Everything()
			visited := 0
			fn := func(ref int32) bool { visited++; return true }
			h := view.Col(0).Bucket(c.startG, c.endG)
			h.Search(box, fn) // warm: builds the index
			if visited != len(h.Items()) {
				t.Fatalf("probe visited %d of %d items", visited, len(h.Items()))
			}
			hitsBefore := c.s.Snapshot().TreeHits
			if allocs := testing.AllocsPerRun(100, func() { h.Search(box, fn) }); allocs != 0 {
				t.Fatalf("warm %s probe of a resolved handle allocates %v objects per run, want 0", c.index, allocs)
			}
			if hits := c.s.Snapshot().TreeHits; hits != hitsBefore {
				t.Fatalf("probing a resolved handle moved TreeHits %d -> %d; reuses are counted per resolution", hitsBefore, hits)
			}
			if allocs := testing.AllocsPerRun(100, func() { view.Col(0).Bucket(c.startG, c.endG).Search(box, fn) }); allocs != 0 {
				t.Fatalf("warm %s resolve-and-probe allocates %v objects per run, want 0", c.index, allocs)
			}
			if hits := c.s.Snapshot().TreeHits; hits == hitsBefore {
				t.Fatal("resolving a bucket with a memoized index counted no TreeHits")
			}
			if snap := c.s.Snapshot(); c.built(snap) != 1 {
				t.Fatalf("probes built %d %s indexes, want the one memoized build (%+v)", c.built(snap), c.index, snap)
			}
		})
	}
}

// An absent bucket resolves to a nil interface — not a typed nil, which
// would pass the join's h == nil test and crash on the first method call.
func TestBucketMissingIsNilInterface(t *testing.T) {
	s, _ := buildStore(t, synthCols(1, 50, 3), 4)
	view := s.View()
	defer view.Release()
	if h := view.Col(0).Bucket(-1, -1); h != nil {
		t.Fatalf("ColView.Bucket on a missing bucket = %#v, want a nil interface", h)
	}
	if h := s.Col(0).Bucket(-1, -1); h != nil {
		t.Fatalf("ColStore.Bucket on a missing bucket = %#v, want a nil interface", h)
	}
}

func TestBuildMappedRejectsMalformedInput(t *testing.T) {
	gran := stats.Granulation{Min: 0, Max: 99, G: 2}
	iv := []interval.Interval{{ID: 1, Start: 5, End: 9}}
	cases := map[string][]MappedCol{
		"misnumbered col": {{Col: 1, Gran: gran, Buckets: []MappedBucket{{Items: iv}}}},
		"empty bucket":    {{Col: 0, Gran: gran, Buckets: []MappedBucket{{StartG: 0, EndG: 0}}}},
		"duplicate bucket": {{Col: 0, Gran: gran, Buckets: []MappedBucket{
			{StartG: 0, EndG: 0, Items: iv}, {StartG: 0, EndG: 0, Items: iv}}}},
	}
	for name, cols := range cases {
		if _, err := BuildMapped(cols, nil); err == nil {
			t.Errorf("%s: BuildMapped accepted", name)
		}
	}
}

// fakeRegion counts refcount traffic and flags a Retain after the count
// hit zero — the use-after-unmap bug the refcounted lifecycle exists to
// prevent.
type fakeRegion struct {
	t    *testing.T
	refs int
	dead bool
}

func (r *fakeRegion) Retain() {
	if r.dead {
		r.t.Error("Retain after the region was destroyed")
	}
	r.refs++
}

func (r *fakeRegion) Release() {
	r.refs--
	if r.refs < 0 {
		r.t.Error("Release below zero")
	}
	if r.refs == 0 {
		r.dead = true
	}
}

// The store must hold exactly one region reference for itself plus one
// per live view, releasing its own on Close and each view's on that
// view's first Release — so the region dies only after the last pinned
// view is gone.
func TestMappedRegionLifecycle(t *testing.T) {
	region := &fakeRegion{t: t, refs: 1} // the opener's reference
	s, _, _ := mappedFixture(t, region)
	if region.refs != 2 {
		t.Fatalf("after BuildMapped: %d refs, want 2 (opener + store)", region.refs)
	}
	region.Release() // opener hands off to the store
	v1 := s.View()
	v2 := s.View()
	if region.refs != 3 {
		t.Fatalf("with two views: %d refs, want 3", region.refs)
	}
	v1.Release()
	v1.Release() // idempotent: must not double-release the region
	if region.refs != 2 {
		t.Fatalf("after releasing one view (twice): %d refs, want 2", region.refs)
	}
	s.Close()
	s.Close() // idempotent
	if region.refs != 1 || region.dead {
		t.Fatalf("after store Close with a live view: refs=%d dead=%t, want the view's ref alive", region.refs, region.dead)
	}
	// The pinned view still serves — its bucket memory is pinned.
	if h := v2.Col(0).Bucket(0, 0); h == nil || len(h.Items()) == 0 {
		t.Fatal("pinned view lost its buckets after store Close")
	}
	v2.Release()
	if !region.dead || region.refs != 0 {
		t.Fatalf("after the last view released: refs=%d dead=%t, want destroyed", region.refs, region.dead)
	}
}

// Appending to a mapped bucket must copy it to the heap (the mapping is
// read-only), keep answering correctly through the flat kernel + delta
// tree combination, and reseal into a flat bucket when compaction hits.
func TestMappedAppendCopiesAndServes(t *testing.T) {
	s, gran, mcols := mappedFixture(t, nil)
	s.SetCompactLimit(4)
	target := mcols[0].Buckets[0]
	before := append([]interval.Interval(nil), target.Items...)

	// Append enough batches into the same bucket to cross compaction.
	sLo, sHi := gran.Bounds(target.StartG)
	eLo, eHi := gran.Bounds(target.EndG)
	start, end := int64((sLo+sHi)/2), int64((eLo+eHi)/2)
	if end < start {
		end = start
	}
	var added []interval.Interval
	for i := 0; i < 6; i++ {
		iv := interval.Interval{ID: int64(900000 + i), Start: start, End: end}
		if l, lp := gran.BucketOf(iv); l != target.StartG || lp != target.EndG {
			t.Fatalf("test bug: appended interval lands in (%d,%d)", l, lp)
		}
		if _, err := s.Append(0, []interval.Interval{iv}); err != nil {
			t.Fatal(err)
		}
		added = append(added, iv)
	}
	// The mapped slice must be untouched (copy-on-append, not in-place).
	if !slices.Equal(target.Items, before) {
		t.Fatal("Append mutated the mapped bucket slice in place")
	}
	view := s.View()
	defer view.Release()
	h := view.Col(0).Bucket(target.StartG, target.EndG)
	items := h.Items()
	if len(items) != len(before)+len(added) {
		t.Fatalf("bucket serves %d items, want %d", len(items), len(before)+len(added))
	}
	var got []int32
	h.Search(rtree.Everything(), func(ref int32) bool {
		got = append(got, ref)
		return true
	})
	if len(got) != len(items) {
		t.Fatalf("probe visited %d of %d items after append", len(got), len(items))
	}
	if snap := s.Snapshot(); snap.TreesBuilt != 0 {
		t.Fatalf("append to a mapped store built %d sealed R-trees; resealed buckets must stay flat", snap.TreesBuilt)
	}
}
