package store

import (
	"math/rand"
	"slices"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/rtree"
	"tkij/internal/stats"
)

// naiveSearch is the reference bucket probes are checked against: the
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

// mappedFixture builds a small store over pre-partitioned sealed
// buckets, as a restore does (no index built yet), over deterministic
// data, alongside the granulation it was bucketed under.
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
	s, err := BuildSealed(cols, region)
	if err != nil {
		t.Fatal(err)
	}
	return s, gran, cols
}

// A mapped store must answer exactly like a built store over the same
// buckets: the same refs in the same visit order — both index a sealed
// prefix with the same memoized R-tree, which is what makes tied
// answers agree across restore paths.
func TestBuildMappedSearchMatchesTreePath(t *testing.T) {
	s, gran, mcols := mappedFixture(t, nil)
	// The heap twin: one collection listing the buckets' intervals in
	// bucket order, so Build reproduces every bucket's item order.
	col := &interval.Collection{Name: "C"}
	for _, mb := range mcols[0].Buckets {
		col.Items = append(col.Items, mb.Items...)
	}
	built, err := Build([]*interval.Collection{col}, []*stats.Matrix{{Gran: gran}})
	if err != nil {
		t.Fatal(err)
	}
	view, bview := s.View(), built.View()
	defer view.Release()
	defer bview.Release()
	probe := func(h Bucket, box rtree.Rect) []int32 {
		var refs []int32
		h.Search(box, func(ref int32) bool {
			refs = append(refs, ref)
			return true
		})
		return refs
	}
	rng := rand.New(rand.NewSource(5))
	for _, mb := range mcols[0].Buckets {
		h, bh := view.Col(0).Bucket(mb.StartG, mb.EndG), bview.Col(0).Bucket(mb.StartG, mb.EndG)
		items := h.Items()
		if len(items) != len(mb.Items) {
			t.Fatalf("bucket (%d,%d): %d items served, %d mapped", mb.StartG, mb.EndG, len(items), len(mb.Items))
		}
		if !slices.Equal(items, bh.Items()) {
			t.Fatalf("bucket (%d,%d): mapped and built stores hold different items", mb.StartG, mb.EndG)
		}
		for round := 0; round < 20; round++ {
			lo := float64(rng.Int63n(1100) - 50)
			box := rtree.Rect{MinX: lo, MaxX: lo + float64(rng.Int63n(300)),
				MinY: float64(rng.Int63n(500)), MaxY: float64(rng.Int63n(500) + 600)}
			got, heap := probe(h, box), probe(bh, box)
			if !slices.Equal(got, heap) {
				t.Fatalf("bucket (%d,%d) box %+v: mapped store visited %v, built store %v", mb.StartG, mb.EndG, box, got, heap)
			}
			slices.Sort(got)
			if want := naiveSearch(items, box); !slices.Equal(got, want) {
				t.Fatalf("bucket (%d,%d) box %+v: got %v, want %v", mb.StartG, mb.EndG, box, got, want)
			}
		}
	}
	if snap, want := s.Snapshot(), int64(len(mcols[0].Buckets)); snap.TreesBuilt != want {
		t.Fatalf("mapped store built %d R-trees for %d probed buckets", snap.TreesBuilt, want)
	}
}

// The warm probe path must be allocation-free with the instrumentation
// compiled in: once a bucket's tree is memoized — the base R-tree of a
// mapped bucket or of a heap-built one, the delta tree over an appended
// suffix — neither resolving the bucket to a handle (the handle is the
// epoch's bucket itself, not an adapter) nor probing a resolved handle
// allocates, and no probe builds a second tree.
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
		{"mapped", mapped, mb.StartG, mb.EndG, func(st Stats) int64 { return st.TreesBuilt }},
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
		if _, err := BuildSealed(cols, nil); err == nil {
			t.Errorf("%s: BuildSealed accepted", name)
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
		t.Fatalf("after BuildSealed: %d refs, want 2 (opener + store)", region.refs)
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
// read-only), keep answering correctly through the base + delta tree
// combination, and reseal into one rebuilt base tree when compaction
// hits — the same life a heap-built bucket leads.
func TestMappedAppendCopiesAndServes(t *testing.T) {
	s, gran, mcols := mappedFixture(t, nil)
	s.setCompactLimit(4)
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
		if i == 0 && &s.Col(0).BucketItems(target.StartG, target.EndG)[0] == &target.Items[0] {
			t.Fatal("the first Append extended the mapped bucket slice in place instead of copying it")
		}
	}
	// The mapped slice must be untouched (copy-on-append, not in-place).
	if !slices.Equal(target.Items, before) {
		t.Fatal("Append mutated the mapped bucket slice in place")
	}
	view := s.View()
	defer view.Release()
	h := view.Col(0).Bucket(target.StartG, target.EndG)
	items := h.Items()
	if want := append(before, added...); !slices.Equal(items, want) {
		t.Fatalf("bucket serves %d items, want the %d mapped then the %d appended", len(items), len(before), len(added))
	}
	seen := make([]bool, len(items))
	h.Search(rtree.Everything(), func(ref int32) bool {
		if seen[ref] {
			t.Fatalf("probe visited ref %d twice", ref)
		}
		seen[ref] = true
		return true
	})
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("probe missed ref %d of %d after append", i, len(items))
	}
	// Six single appends under limit 4: one reseal at the fourth, then a
	// two-interval delta. The probe builds the resealed base tree and the
	// delta tree, nothing else.
	if snap := s.Snapshot(); snap.Compactions != 1 || snap.TreesBuilt != 1 || snap.DeltaTreesBuilt != 1 {
		t.Fatalf("append to a mapped store: %d compactions, %d base trees, %d delta trees built; want 1, 1, 1",
			snap.Compactions, snap.TreesBuilt, snap.DeltaTreesBuilt)
	}
}
