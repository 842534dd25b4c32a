package plancache

import (
	"fmt"
	"reflect"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// testData builds two small collections with matrices under one
// granulation, plus a 2-vertex meets query over them.
func testData(t *testing.T) (*query.Query, []*stats.Matrix) {
	t.Helper()
	gr := gran(t, 0, 120, 4)
	mk := func(col int, seed int64) *stats.Matrix {
		m := stats.NewMatrix(col, gr)
		for i := int64(0); i < 40; i++ {
			s := (seed*31 + i*7) % 110
			m.Add(interval.Interval{ID: seed*1000 + i, Start: s, End: s + 1 + (i*3)%9})
		}
		return m
	}
	q := mustQuery(t, "meets", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	return q, []*stats.Matrix{mk(0, 1), mk(1, 2)}
}

func request(q *query.Query, ms []*stats.Matrix, k int, epoch int64) Request {
	cols := make([]int, len(ms))
	for i := range cols {
		cols[i] = i
	}
	return Request{
		Query: q, Matrices: ms, VertexCols: cols, K: k, Epoch: epoch,
	}
}

func TestCacheHitAndEpochSeparation(t *testing.T) {
	q, ms := testData(t)
	c := New(Options{})

	p1, err := c.Plan(request(q, ms, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Outcome != Miss {
		t.Fatalf("first plan: outcome %v, want miss", p1.Outcome)
	}
	p2, err := c.Plan(request(q, ms, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Outcome != Hit {
		t.Fatalf("repeat at same epoch: outcome %v, want hit", p2.Outcome)
	}
	if p2.Plan != p1.Plan {
		t.Fatal("hit did not reuse the cached plan")
	}
	if p1.Bounds == nil || p2.Bounds != p1.Bounds {
		t.Fatal("hit did not carry the plan's bound memo")
	}
	if p2.SavedPlanTime <= 0 {
		t.Fatal("hit reported no saved planning time")
	}

	// An epoch bump with matrices changes is not a hit: appends into
	// existing interior buckets promote the entry.
	ms2 := []*stats.Matrix{ms[0].Clone(), ms[1]}
	if err := stats.ApplyUpdate(ms2[0], []interval.Interval{{ID: 900, Start: 50, End: 58}}, nil); err != nil {
		t.Fatal(err)
	}
	p3, err := c.Plan(request(q, ms2, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p3.Outcome != Revalidated {
		t.Fatalf("after epoch bump: outcome %v, want revalidated", p3.Outcome)
	}
	if p3.Plan.KthResLB < p1.Plan.KthResLB {
		t.Fatalf("promoted floor %g regressed below original %g",
			p3.Plan.KthResLB, p1.Plan.KthResLB)
	}
	if p3.Bounds != p1.Bounds {
		t.Fatal("promotion did not carry the plan's bound memo verbatim")
	}

	// A query still pinned at the old epoch must not be served the
	// promoted entry (its floor may be certified by data the old view
	// cannot see): it plans cold.
	p4, err := c.Plan(request(q, ms, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p4.Outcome != Miss {
		t.Fatalf("older-epoch query: outcome %v, want miss", p4.Outcome)
	}
	if p4.Bounds == nil || p4.Bounds == p1.Bounds {
		t.Fatal("a cold plan must come with a bound memo of its own")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Revalidations != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 1 revalidation / 2 misses", st)
	}
}

func TestWidenedBoundaryReplans(t *testing.T) {
	q, ms := testData(t)
	c := New(Options{})
	p1, err := c.Plan(request(q, ms, 5, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Out-of-range appends clamp into the boundary granules and widen
	// the grid, so the cached bounds no longer bind: the plan is planned
	// again, never served as a hit or promoted.
	ms2 := []*stats.Matrix{ms[0].Clone(), ms[1]}
	batch := []interval.Interval{{ID: 901, Start: -500, End: -40}, {ID: 902, Start: 600, End: 700}}
	if err := stats.ApplyUpdate(ms2[0], batch, nil); err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(request(q, ms2, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Outcome != Miss {
		t.Fatalf("widened boundary: outcome %v, want miss", p2.Outcome)
	}
	if p2.Bounds == nil || p2.Bounds == p1.Bounds {
		t.Fatal("a re-planned entry must not keep its predecessor's bound memo")
	}
}

// TestShapeChangeReplansCold: a plan crosses an epoch bump in one of two
// ways. An append into existing buckets promotes it as-is; an append
// that widens a boundary granule or creates a bucket plans it again,
// exactly as a cache that stores nothing would.
func TestShapeChangeReplansCold(t *testing.T) {
	q, ms := testData(t)
	c := New(Options{})
	first, err := c.Plan(request(q, ms, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	// appended returns ms with batch appended to vertex 0's matrix.
	appended := func(ms []*stats.Matrix, batch ...interval.Interval) []*stats.Matrix {
		t.Helper()
		next := []*stats.Matrix{ms[0].Clone(), ms[1]}
		if err := stats.ApplyUpdate(next[0], batch, nil); err != nil {
			t.Fatal(err)
		}
		return next
	}

	interior := appended(ms, interval.Interval{ID: 900, Start: 50, End: 58})
	p, err := c.Plan(request(q, interior, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome != Revalidated {
		t.Fatalf("interior append: outcome %v, want the plan promoted", p.Outcome)
	}
	if p.Bounds != first.Bounds || !reflect.DeepEqual(p.Plan.Drain(), first.Plan.Drain()) {
		t.Fatal("a promoted plan must keep its bound memo and its selection")
	}

	widened := appended(interior, interval.Interval{ID: 901, Start: -500, End: -40})
	bucket := interval.Interval{ID: 902, Start: 5, End: 100}
	if widened[0].Count(widened[0].Gran.BucketOf(bucket)) != 0 {
		t.Fatal("the new-bucket append lands in an existing bucket — the test lost its subject")
	}
	for epoch, step := range []struct {
		name string
		ms   []*stats.Matrix
	}{
		{"boundary widening", widened},
		{"new bucket", appended(widened, bucket)},
	} {
		req := request(q, step.ms, 5, int64(epoch+2))
		p, err := c.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if p.Outcome != Miss {
			t.Fatalf("%s: outcome %v, want miss", step.name, p.Outcome)
		}
		cold, err := New(Options{Disabled: true}).Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Plan.Drain(), cold.Plan.Drain()) ||
			p.Plan.KthResLB != cold.Plan.KthResLB {
			t.Fatalf("%s: the re-plan differs from a cold plan of the same request", step.name)
		}
	}
}

func TestDisabledCacheStoresNothing(t *testing.T) {
	q, ms := testData(t)
	c := New(Options{Disabled: true})
	for i := 0; i < 3; i++ {
		p, err := c.Plan(request(q, ms, 5, 0))
		if err != nil {
			t.Fatal(err)
		}
		if p.Outcome != Miss {
			t.Fatalf("disabled cache produced outcome %v", p.Outcome)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("disabled cache retained %d entries", st.Entries)
	}
}

func TestEvictionRespectsCostBound(t *testing.T) {
	q, ms := testData(t)
	// Learn one plan's cost, then size the cache to hold about two.
	probe := New(Options{})
	if _, err := probe.Plan(request(q, ms, 1, 0)); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().Cost
	if one <= 0 {
		t.Fatal("plan recorded non-positive cost")
	}

	c := New(Options{MaxCost: one * 2.5})
	for k := 1; k <= 5; k++ { // distinct k -> distinct keys
		if _, err := c.Plan(request(q, ms, k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Cost > one*2.5 {
		t.Fatalf("retained cost %g exceeds the bound %g", st.Cost, one*2.5)
	}
	if st.Evictions == 0 || st.Entries >= 5 {
		t.Fatalf("expected LRU evictions, got %+v", st)
	}
	// LRU order: the most recent shape must still be cached, the first
	// one long evicted.
	p, err := c.Plan(request(q, ms, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome != Hit {
		t.Fatalf("most recently used entry was evicted (outcome %v)", p.Outcome)
	}
	p, err = c.Plan(request(q, ms, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome != Miss {
		t.Fatalf("least recently used entry survived past the cost bound (outcome %v)", p.Outcome)
	}
}

func TestPurge(t *testing.T) {
	q, ms := testData(t)
	c := New(Options{})
	if _, err := c.Plan(request(q, ms, 5, 0)); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 {
		t.Fatalf("purge left %+v", st)
	}
	p, err := c.Plan(request(q, ms, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome != Miss {
		t.Fatalf("post-purge plan: outcome %v, want miss", p.Outcome)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Revalidated: "revalidated"} {
		if got := o.String(); got != want {
			t.Fatalf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
	if got := fmt.Sprint(Outcome(9)); got != "Outcome(9)" {
		t.Fatalf("unknown outcome rendered %q", got)
	}
}
