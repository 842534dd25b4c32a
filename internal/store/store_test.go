package store

import (
	"math/rand"
	"sync"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/rtree"
	"tkij/internal/stats"
)

func synthCols(n, perCol int, seed int64) []*interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, n)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(2000)
			c.Add(interval.Interval{ID: int64(i*1000000 + j), Start: s, End: s + 1 + rng.Int63n(80)})
		}
		cols[i] = c
	}
	return cols
}

func buildStore(t *testing.T, cols []*interval.Collection, g int) (*Store, []*stats.Matrix) {
	t.Helper()
	ms, _, err := stats.Collect(cols, g, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(cols, ms)
	if err != nil {
		t.Fatal(err)
	}
	return s, ms
}

// The partition must be lossless: every interval lands in exactly the
// bucket its granulation assigns, and bucket sizes match the matrix.
func TestBuildPartitionsMatchMatrices(t *testing.T) {
	cols := synthCols(3, 200, 7)
	s, ms := buildStore(t, cols, 6)
	if s.Intervals() != 600 {
		t.Fatalf("Intervals = %d, want 600", s.Intervals())
	}
	for i, m := range ms {
		cs := s.Col(i)
		if cs.Col() != i || cs.Granulation() != m.Gran {
			t.Fatalf("col %d store mislabeled", i)
		}
		total := 0
		for _, b := range m.Buckets() {
			items := cs.BucketItems(b.StartG, b.EndG)
			if len(items) != b.Count {
				t.Fatalf("col %d bucket (%d,%d): %d resident items, matrix says %d",
					i, b.StartG, b.EndG, len(items), b.Count)
			}
			for _, iv := range items {
				l, lp := m.Gran.BucketOf(iv)
				if l != b.StartG || lp != b.EndG {
					t.Fatalf("interval %v filed under (%d,%d), belongs in (%d,%d)",
						iv, b.StartG, b.EndG, l, lp)
				}
			}
			total += len(items)
		}
		if total != cols[i].Len() {
			t.Fatalf("col %d partition holds %d intervals, collection has %d", i, total, cols[i].Len())
		}
		if cs.NumBuckets() != len(m.Buckets()) {
			t.Fatalf("col %d has %d buckets, matrix has %d non-empty cells", i, cs.NumBuckets(), len(m.Buckets()))
		}
	}
}

// Trees are built once and the same pointer is returned forever after.
func TestTreeMemoization(t *testing.T) {
	cols := synthCols(1, 100, 3)
	s, ms := buildStore(t, cols, 4)
	cs := s.Col(0)
	b := ms[0].Buckets()[0]
	t1 := cs.BucketTree(b.StartG, b.EndG)
	t2 := cs.BucketTree(b.StartG, b.EndG)
	if t1 == nil || t1 != t2 {
		t.Fatal("memoized tree not reused")
	}
	if t1.Len() != b.Count {
		t.Fatalf("tree indexes %d points, bucket has %d", t1.Len(), b.Count)
	}
	st := s.Snapshot()
	if st.TreesBuilt != 1 || st.TreeHits != 1 {
		t.Fatalf("Snapshot = %+v, want 1 build and 1 hit", st)
	}
	if cs.BucketItems(-1, -1) != nil || cs.BucketTree(-1, -1) != nil {
		t.Fatal("empty bucket should yield nil items and nil tree")
	}
}

// Concurrent readers hammering the same buckets must race-safely share
// one tree per bucket (run under -race).
func TestConcurrentTreeAccess(t *testing.T) {
	cols := synthCols(2, 300, 11)
	s, ms := buildStore(t, cols, 5)
	var wg sync.WaitGroup
	trees := make([][]*rtree.Tree, 8)
	buckets := ms[0].Buckets()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, b := range buckets {
				trees[g] = append(trees[g], s.Col(0).BucketTree(b.StartG, b.EndG))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range trees[0] {
			if trees[g][i] != trees[0][i] {
				t.Fatal("goroutines observed different trees for one bucket")
			}
		}
	}
	if st := s.Snapshot(); st.TreesBuilt != int64(len(buckets)) {
		t.Fatalf("built %d trees for %d buckets", st.TreesBuilt, len(buckets))
	}
}

func TestBuildValidation(t *testing.T) {
	cols := synthCols(2, 10, 1)
	ms, _, err := stats.Collect(cols, 3, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(cols[:1], ms); err == nil {
		t.Error("mismatched collection/matrix counts accepted")
	}
}

// searchAll collects every item of a bucket through its resolved handle
// with an everything box — the probe path queries actually use.
func searchAll(src interface {
	Bucket(startG, endG int) Bucket
}, startG, endG int) map[int64]bool {
	got := map[int64]bool{}
	h := src.Bucket(startG, endG)
	if h == nil {
		return got
	}
	items := h.Items()
	h.Search(rtree.Everything(), func(ref int32) bool {
		got[items[ref].ID] = true
		return true
	})
	return got
}

// Appends must publish new epochs that extend touched buckets while
// untouched buckets keep sharing their memoized trees, and SearchBucket
// must see base and delta items alike.
func TestAppendEpochsAndDeltaSearch(t *testing.T) {
	cols := synthCols(2, 200, 5)
	s, ms := buildStore(t, cols, 4)
	if s.Epoch() != 0 {
		t.Fatalf("fresh store at epoch %d", s.Epoch())
	}
	buckets := ms[0].Buckets()
	target, other := buckets[0], buckets[len(buckets)-1]
	// Memoize both buckets' trees at epoch 0.
	searchAll(s.Col(0), target.StartG, target.EndG)
	searchAll(s.Col(0), other.StartG, other.EndG)
	base := s.Snapshot()
	if base.TreesBuilt == 0 || base.DeltaTreesBuilt != 0 {
		t.Fatalf("epoch-0 stats: %+v", base)
	}

	// Append one batch landing inside the target bucket.
	gran := ms[0].Gran
	lo, _ := gran.Bounds(target.StartG)
	_, hi := gran.Bounds(target.EndG)
	add := []interval.Interval{{ID: 777001, Start: int64(lo) + 1, End: int64(hi) - 1}}
	if l, lp := gran.BucketOf(add[0]); l != target.StartG || lp != target.EndG {
		t.Fatal("test interval does not land in the target bucket")
	}
	epoch, err := s.Append(0, add)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || s.Epoch() != 1 {
		t.Fatalf("append published epoch %d (store says %d), want 1", epoch, s.Epoch())
	}

	got := searchAll(s.Col(0), target.StartG, target.EndG)
	if !got[777001] {
		t.Fatal("SearchBucket does not see the appended (delta) interval")
	}
	if len(got) != target.Count+1 {
		t.Fatalf("bucket sees %d items, want %d", len(got), target.Count+1)
	}
	searchAll(s.Col(0), other.StartG, other.EndG)
	after := s.Snapshot()
	if after.TreesBuilt != base.TreesBuilt {
		t.Fatalf("append rebuilt %d sealed trees; untouched buckets must keep theirs",
			after.TreesBuilt-base.TreesBuilt)
	}
	if after.DeltaTreesBuilt != 1 {
		t.Fatalf("DeltaTreesBuilt = %d, want 1 (the touched bucket)", after.DeltaTreesBuilt)
	}
	if after.DeltaItems != 1 {
		t.Fatalf("DeltaItems = %d, want 1", after.DeltaItems)
	}
	if s.Intervals() != 401 {
		t.Fatalf("Intervals = %d, want 401", s.Intervals())
	}
}

// A pinned view must keep serving its epoch while appends land, and a
// fresh view must see them — the no-partial-reads contract Execute
// relies on.
func TestViewPinsEpoch(t *testing.T) {
	cols := synthCols(1, 150, 9)
	s, ms := buildStore(t, cols, 4)
	b := ms[0].Buckets()[0]
	gran := ms[0].Gran
	lo, _ := gran.Bounds(b.StartG)
	_, hi := gran.Bounds(b.EndG)

	pinned := s.View()
	if pinned.Epoch() != 0 {
		t.Fatalf("pinned epoch %d, want 0", pinned.Epoch())
	}
	add := []interval.Interval{{ID: 888001, Start: int64(lo) + 1, End: int64(hi) - 1}}
	if _, err := s.Append(0, add); err != nil {
		t.Fatal(err)
	}
	if got := searchAll(pinned.Col(0), b.StartG, b.EndG); got[888001] {
		t.Fatal("pinned view observed an interval from a later epoch")
	}
	if n := len(pinned.Col(0).Bucket(b.StartG, b.EndG).Items()); n != b.Count {
		t.Fatalf("pinned view bucket holds %d items, want %d", n, b.Count)
	}
	fresh := s.View()
	if fresh.Epoch() != 1 {
		t.Fatalf("fresh epoch %d, want 1", fresh.Epoch())
	}
	if got := searchAll(fresh.Col(0), b.StartG, b.EndG); !got[888001] {
		t.Fatal("fresh view does not see the appended interval")
	}
	if pinned.Col(0).Intervals() != 150 || fresh.Col(0).Intervals() != 151 {
		t.Fatalf("view interval counts: pinned %d, fresh %d", pinned.Col(0).Intervals(), fresh.Col(0).Intervals())
	}
}

// Once a bucket's delta crosses the compaction threshold the bucket
// reseals: the delta layer empties and the next probe pays exactly one
// sealed rebuild for that bucket.
func TestCompactionReseals(t *testing.T) {
	cols := synthCols(1, 100, 13)
	s, ms := buildStore(t, cols, 3)
	s.setCompactLimit(3)
	b := ms[0].Buckets()[0]
	gran := ms[0].Gran
	lo, _ := gran.Bounds(b.StartG)
	_, hi := gran.Bounds(b.EndG)
	mk := func(id int64) interval.Interval {
		return interval.Interval{ID: id, Start: int64(lo) + 1, End: int64(hi) - 1}
	}
	searchAll(s.Col(0), b.StartG, b.EndG) // memoize the sealed tree
	before := s.Snapshot()

	// Two single-interval appends stay in the delta layer...
	for i := int64(0); i < 2; i++ {
		if _, err := s.Append(0, []interval.Interval{mk(999000 + i)}); err != nil {
			t.Fatal(err)
		}
		searchAll(s.Col(0), b.StartG, b.EndG)
	}
	mid := s.Snapshot()
	if mid.Compactions != before.Compactions {
		t.Fatalf("compacted below the threshold: %+v", mid)
	}
	if mid.TreesBuilt != before.TreesBuilt {
		t.Fatal("delta appends rebuilt the sealed tree")
	}
	// ... and the third crosses the limit and reseals.
	if _, err := s.Append(0, []interval.Interval{mk(999002)}); err != nil {
		t.Fatal(err)
	}
	sealed := s.Snapshot()
	if sealed.Compactions != before.Compactions+1 {
		t.Fatalf("Compactions = %d, want %d", sealed.Compactions, before.Compactions+1)
	}
	if sealed.DeltaItems != 0 {
		t.Fatalf("DeltaItems = %d after compaction, want 0", sealed.DeltaItems)
	}
	got := searchAll(s.Col(0), b.StartG, b.EndG)
	for i := int64(0); i < 3; i++ {
		if !got[999000+i] {
			t.Fatalf("post-compaction search lost appended interval %d", 999000+i)
		}
	}
	if len(got) != b.Count+3 {
		t.Fatalf("post-compaction bucket sees %d items, want %d", len(got), b.Count+3)
	}
	final := s.Snapshot()
	if final.TreesBuilt != before.TreesBuilt+1 {
		t.Fatalf("compaction rebuilt %d sealed trees, want exactly 1", final.TreesBuilt-before.TreesBuilt)
	}
}

func TestAppendValidation(t *testing.T) {
	cols := synthCols(1, 20, 21)
	s, _ := buildStore(t, cols, 3)
	if _, err := s.Append(1, nil); err == nil {
		t.Error("append to a collection out of range accepted")
	}
	if _, err := s.Append(0, []interval.Interval{{ID: 1, Start: 5, End: 2}}); err == nil {
		t.Error("invalid interval accepted")
	}
	if epoch, err := s.Append(0, nil); err != nil || epoch != 0 {
		t.Errorf("empty append: epoch %d, err %v; want 0, nil", epoch, err)
	}
}

// Concurrent appends and pinned-view searches must be race-free and
// every pinned view must stay internally consistent (run under -race).
func TestConcurrentAppendAndSearch(t *testing.T) {
	cols := synthCols(1, 300, 33)
	s, ms := buildStore(t, cols, 4)
	buckets := ms[0].Buckets()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 40; i++ {
			iv := interval.Interval{ID: 5000000 + i, Start: 100 + i, End: 200 + i}
			if _, err := s.Append(0, []interval.Interval{iv}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				v := s.View()
				total := 0
				for _, b := range buckets {
					cnt := 0
					h := v.Col(0).Bucket(b.StartG, b.EndG)
					h.Search(rtree.Everything(), func(ref int32) bool {
						cnt++
						return true
					})
					if n := len(h.Items()); cnt != n {
						t.Errorf("search visited %d of %d items", cnt, n)
						return
					}
					total += cnt
				}
				if total < 300 {
					t.Errorf("view lost base intervals: %d < 300", total)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if s.Epoch() != 40 {
		t.Fatalf("final epoch %d, want 40", s.Epoch())
	}
}

// View pinning must be accounted: every View counts as live until
// Released (idempotently), and the high-water mark tracks the peak.
func TestViewStatsAccounting(t *testing.T) {
	cols := synthCols(1, 100, 21)
	s, _ := buildStore(t, cols, 4)

	if vs := s.ViewStats(); vs.Live != 0 || vs.HighWater != 0 {
		t.Fatalf("fresh store view stats = %+v, want zeros", vs)
	}
	v1 := s.View()
	v2 := s.View()
	v3 := s.View()
	if vs := s.ViewStats(); vs.Live != 3 || vs.HighWater != 3 {
		t.Fatalf("after 3 pins view stats = %+v, want live=3 hw=3", vs)
	}
	v2.Release()
	v2.Release() // idempotent: a double release must not underflow
	if vs := s.ViewStats(); vs.Live != 2 || vs.HighWater != 3 {
		t.Fatalf("after release view stats = %+v, want live=2 hw=3", vs)
	}
	v4 := s.View()
	if vs := s.ViewStats(); vs.Live != 3 || vs.HighWater != 3 {
		t.Fatalf("re-pin view stats = %+v, want live=3 hw=3", vs)
	}
	v1.Release()
	v3.Release()
	v4.Release()
	if vs := s.ViewStats(); vs.Live != 0 || vs.HighWater != 3 {
		t.Fatalf("drained view stats = %+v, want live=0 hw=3", vs)
	}
	var nilView *View
	nilView.Release() // nil view: no-op
	// A released view's bucket data stays readable — release retires
	// accounting, not the snapshot.
	if v1.Epoch() != 0 {
		t.Fatalf("released view epoch = %d", v1.Epoch())
	}
}

// An unpinned reader must be able to index a bucket's items with the
// refs its search yields while appends publish new epochs: ColStore.Bucket
// hands out one immutable epoch's bucket, so items and refs agree by
// construction. (Written against BucketItems + SearchBucket — two calls,
// possibly two epochs — the same loop reads past the older slice.) Run
// under -race.
func TestColStoreBucketNeverMixesEpochs(t *testing.T) {
	cols := synthCols(1, 300, 41)
	s, ms := buildStore(t, cols, 4)
	s.setCompactLimit(8) // mix delta epochs with reseals
	b := ms[0].Buckets()[0]
	first := s.Col(0).BucketItems(b.StartG, b.EndG)[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 400; i++ {
			iv := interval.Interval{ID: 7000000 + i, Start: first.Start, End: first.End}
			if _, err := s.Append(0, []interval.Interval{iv}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	cs := s.Col(0)
	for running := true; running; {
		select {
		case <-done:
			running = false // one more pass, over the final epoch
		default:
		}
		h := cs.Bucket(b.StartG, b.EndG)
		items := h.Items()
		seen := 0
		h.Search(rtree.Everything(), func(ref int32) bool {
			if l, lp := ms[0].Gran.BucketOf(items[ref]); l != b.StartG || lp != b.EndG {
				t.Errorf("ref %d resolves to %v of bucket (%d,%d)", ref, items[ref], l, lp)
			}
			seen++
			return true
		})
		if seen != len(items) {
			t.Fatalf("search yielded %d refs over %d items", seen, len(items))
		}
	}
	if n := len(cs.Bucket(b.StartG, b.EndG).Items()); n != b.Count+400 {
		t.Fatalf("final epoch holds %d items, want %d", n, b.Count+400)
	}
}

// A handle resolved from a pinned View is that epoch's bucket: it keeps
// serving exactly the items it was resolved with while appends publish
// later epochs of the same bucket — delta epochs and a compaction alike.
// Run under -race.
func TestResolvedHandleKeepsItsEpoch(t *testing.T) {
	cols := synthCols(1, 200, 43)
	s, ms := buildStore(t, cols, 4)
	s.setCompactLimit(2)
	b := ms[0].Buckets()[0]
	view := s.View()
	defer view.Release()
	h := view.Col(0).Bucket(b.StartG, b.EndG)
	want := append([]interval.Interval(nil), h.Items()...)
	if len(want) != b.Count {
		t.Fatalf("handle resolved %d items, matrix says %d", len(want), b.Count)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 3; i++ { // delta, compaction (delta reaches the limit), delta
			iv := interval.Interval{ID: 8000000 + i, Start: want[0].Start, End: want[0].End}
			if _, err := s.Append(0, []interval.Interval{iv}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func() {
		t.Helper()
		items := h.Items()
		if len(items) != len(want) {
			t.Fatalf("pinned handle serves %d items, resolved with %d", len(items), len(want))
		}
		seen := make(map[int32]bool)
		h.Search(rtree.Everything(), func(ref int32) bool {
			if items[ref] != want[ref] {
				t.Fatalf("ref %d serves %v, resolved as %v", ref, items[ref], want[ref])
			}
			seen[ref] = true
			return true
		})
		if len(seen) != len(want) {
			t.Fatalf("pinned handle's search yielded %d distinct refs over %d items", len(seen), len(want))
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check()
	}
	if st := s.Snapshot(); st.Epoch != 3 || st.Compactions != 1 {
		t.Fatalf("appends published epoch %d with %d compactions, want 3 and 1", st.Epoch, st.Compactions)
	}
	fresh := s.View()
	defer fresh.Release()
	if n := len(fresh.Col(0).Bucket(b.StartG, b.EndG).Items()); n != len(want)+3 {
		t.Fatalf("fresh view serves %d items, want %d", n, len(want)+3)
	}
}
