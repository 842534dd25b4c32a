package stats

import (
	"math/rand"
	"strings"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/mapreduce"
)

func TestGranulationIndexOf(t *testing.T) {
	gr, err := NewGranulation(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		t    interval.Timestamp
		want int
	}{
		{0, 0}, {5, 0}, {10, 1}, {99, 9}, {100, 9},
		{-50, 0}, // clamp below
		{500, 9}, // clamp above
	}
	for _, tt := range tests {
		if got := gr.IndexOf(tt.t); got != tt.want {
			t.Errorf("IndexOf(%d) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestGranulationBounds(t *testing.T) {
	gr, _ := NewGranulation(10, 110, 10)
	lo, hi := gr.Bounds(0)
	if lo != 10 || hi != 20 {
		t.Errorf("Bounds(0) = [%g,%g], want [10,20]", lo, hi)
	}
	lo, hi = gr.Bounds(9)
	if lo != 100 || hi != 110 {
		t.Errorf("Bounds(9) = [%g,%g], want [100,110]", lo, hi)
	}
}

func TestGranulationErrors(t *testing.T) {
	if _, err := NewGranulation(0, 10, 0); err == nil {
		t.Error("g=0 accepted")
	}
	if _, err := NewGranulation(10, 0, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestGranulationDegenerate(t *testing.T) {
	gr, err := NewGranulation(5, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := gr.IndexOf(5); got != 0 {
		t.Errorf("IndexOf(min=max) = %d, want 0", got)
	}
}

// Every timestamp in range must fall in the granule whose bounds contain
// it.
func TestIndexOfConsistentWithBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		min := interval.Timestamp(rng.Intn(1000))
		max := min + interval.Timestamp(rng.Intn(10000)+1)
		g := rng.Intn(40) + 1
		gr, err := NewGranulation(min, max, g)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 200; s++ {
			ts := min + interval.Timestamp(rng.Int63n(int64(max-min+1)))
			idx := gr.IndexOf(ts)
			lo, hi := gr.Bounds(idx)
			if float64(ts) < lo-1e-9 || float64(ts) > hi+1e-9 {
				t.Fatalf("t=%d in granule %d with bounds [%g,%g] (range [%d,%d], g=%d)", ts, idx, lo, hi, min, max, g)
			}
		}
	}
}

func TestMatrixAddRemoveValidate(t *testing.T) {
	gr, _ := NewGranulation(0, 100, 5)
	m := NewMatrix(0, gr)
	iv1 := interval.Interval{ID: 1, Start: 5, End: 45}  // granules 0 -> 2
	iv2 := interval.Interval{ID: 2, Start: 25, End: 30} // granule 1 -> 1
	m.Add(iv1)
	m.Add(iv2)
	if m.Total() != 2 {
		t.Fatalf("Total = %d", m.Total())
	}
	if m.Count(0, 2) != 1 || m.Count(1, 1) != 1 {
		t.Fatalf("counts wrong: %v", m.Counts)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// A corrupted count (as a damaged snapshot could carry) is caught
	// even when the total agrees with the cell sum.
	m.Counts[1][1] = -1
	m.total = 0
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "< 0") {
		t.Errorf("negative count not detected: %v", err)
	}
}

func TestMatrixBucketsSorted(t *testing.T) {
	gr, _ := NewGranulation(0, 100, 4)
	m := NewMatrix(3, gr)
	m.Add(interval.Interval{Start: 80, End: 90})
	m.Add(interval.Interval{Start: 5, End: 95})
	m.Add(interval.Interval{Start: 5, End: 10})
	bs := m.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %v", bs)
	}
	// Row-major: (0,0), (0,3), (3,3).
	want := []BucketKey{{3, 0, 0}, {3, 0, 3}, {3, 3, 3}}
	for i, b := range bs {
		if b.Key() != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, b.Key(), want[i])
		}
		if b.Count != 1 {
			t.Errorf("bucket %d count = %d", i, b.Count)
		}
	}
}

func TestMatrixMergeGranulationMismatch(t *testing.T) {
	g1, _ := NewGranulation(0, 100, 4)
	g2, _ := NewGranulation(0, 100, 5)
	if err := NewMatrix(0, g1).Merge(NewMatrix(0, g2)); err == nil {
		t.Error("granulation mismatch accepted")
	}
}

func TestMatrixBox(t *testing.T) {
	gr, _ := NewGranulation(0, 100, 10)
	m := NewMatrix(0, gr)
	sLo, sHi := m.Grid().Bounds(1)
	eLo, eHi := m.Grid().Bounds(2)
	if sLo != 10 || sHi != 20 || eLo != 20 || eHi != 30 {
		t.Errorf("Box = (%g,%g,%g,%g)", sLo, sHi, eLo, eHi)
	}
}

func randomCollection(name string, n int, seed int64) *interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	c := &interval.Collection{Name: name}
	for i := 0; i < n; i++ {
		s := rng.Int63n(100000)
		c.Add(interval.Interval{ID: int64(i), Start: s, End: s + 1 + rng.Int63n(99)})
	}
	return c
}

func TestCollectMatchesSequential(t *testing.T) {
	cols := []*interval.Collection{
		randomCollection("C1", 20000, 1),
		randomCollection("C2", 15000, 2),
		randomCollection("C3", 10000, 3),
	}
	const g = 12
	matrices, metrics, err := Collect(cols, g, mapreduce.Config{Mappers: 4, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Job != "collect-statistics" {
		t.Errorf("job name = %q", metrics.Job)
	}
	for i, c := range cols {
		m := matrices[i]
		if err := m.Validate(); err != nil {
			t.Fatalf("B%d invalid: %v", i, err)
		}
		// Sequential reference.
		ref := NewMatrix(i, m.Gran)
		for _, iv := range c.Items {
			ref.Add(iv)
		}
		for l := 0; l < g; l++ {
			for lp := 0; lp < g; lp++ {
				if m.Count(l, lp) != ref.Count(l, lp) {
					t.Fatalf("B%d[%d][%d] = %d, want %d", i, l, lp, m.Count(l, lp), ref.Count(l, lp))
				}
			}
		}
	}
}

func TestCollectRejectsEmptyInput(t *testing.T) {
	if _, _, err := Collect(nil, 4, mapreduce.Config{}); err == nil {
		t.Error("nil collections accepted")
	}
	if _, _, err := Collect([]*interval.Collection{{Name: "empty"}}, 4, mapreduce.Config{}); err == nil {
		t.Error("empty collection accepted")
	}
}

func TestCollectRejectsInvalidInterval(t *testing.T) {
	c := &interval.Collection{Name: "bad", Items: []interval.Interval{{ID: 1, Start: 10, End: 5}}}
	if _, _, err := Collect([]*interval.Collection{c}, 4, mapreduce.Config{}); err == nil {
		t.Error("invalid interval accepted")
	}
}

func TestApplyUpdate(t *testing.T) {
	cols := []*interval.Collection{randomCollection("C1", 1000, 9)}
	matrices, _, err := Collect(cols, 8, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := matrices[0]
	ins := []interval.Interval{{ID: 9001, Start: 50, End: 99}}
	if err := ApplyUpdate(m, ins); err != nil {
		t.Fatal(err)
	}
	if m.Total() != 1001 {
		t.Errorf("Total after +1 = %d, want 1001", m.Total())
	}
	if err := ApplyUpdate(m, []interval.Interval{{Start: 9, End: 2}}); err == nil {
		t.Error("invalid insert accepted")
	}
}

// The matrix total must always equal collection size, and bucket counts
// must bracket correctly regardless of data skew.
func TestCollectTotalsProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 500 + int(seed)*37
		cols := []*interval.Collection{randomCollection("C", n, seed)}
		matrices, _, err := Collect(cols, 7, mapreduce.Config{Mappers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if matrices[0].Total() != n {
			t.Fatalf("seed %d: total %d != %d", seed, matrices[0].Total(), n)
		}
		sum := 0
		for _, b := range matrices[0].Buckets() {
			sum += b.Count
		}
		if sum != n {
			t.Fatalf("seed %d: bucket sum %d != %d", seed, sum, n)
		}
	}
}
