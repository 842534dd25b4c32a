package stats

import (
	"fmt"

	"tkij/internal/interval"
)

// Bucket identifies one non-empty bucket b_{i,l,l'} of collection Col:
// the set of intervals starting in granule StartG and ending in granule
// EndG, of which there are Count.
type Bucket struct {
	Col    int
	StartG int
	EndG   int
	Count  int
}

// Key returns the bucket's identity without the count, used for
// assignment maps (the same bucket may appear in many combinations).
func (b Bucket) Key() BucketKey {
	return BucketKey{Col: b.Col, StartG: b.StartG, EndG: b.EndG}
}

// String implements fmt.Stringer.
func (b Bucket) String() string {
	return fmt.Sprintf("b{C%d,g%d,g%d:%d}", b.Col, b.StartG, b.EndG, b.Count)
}

// BucketKey is the comparable identity of a bucket.
type BucketKey struct {
	Col    int
	StartG int
	EndG   int
}

// Matrix is the endpoint-distribution matrix B_i of one collection
// (§3.2): Counts[l][l'] = |{x in C_i : start(x) in g_l, end(x) in g_l'}|.
type Matrix struct {
	Col    int
	Gran   Granulation
	Counts [][]int
	total  int
	// extLo and extHi track the observed endpoint extent. Incremental
	// maintenance (Add, via ApplyUpdate or streaming appends) clamps
	// out-of-range endpoints into the boundary granules, and every
	// bound computed from granule boxes must widen those granules to
	// the data actually in them (Grid) to stay sound. The extent only
	// ever widens.
	extLo, extHi interval.Timestamp
}

// NewMatrix returns an empty matrix over the given granulation.
func NewMatrix(col int, gran Granulation) *Matrix {
	counts := make([][]int, gran.G)
	backing := make([]int, gran.G*gran.G)
	for l := range counts {
		counts[l], backing = backing[:gran.G], backing[gran.G:]
	}
	return &Matrix{Col: col, Gran: gran, Counts: counts, extLo: gran.Min, extHi: gran.Max}
}

// Add records one interval. Endpoints outside the granulation range
// clamp to the boundary granules and widen the observed extent.
func (m *Matrix) Add(iv interval.Interval) {
	l, lp := m.Gran.BucketOf(iv)
	m.Counts[l][lp]++
	m.total++
	if iv.Start < m.extLo {
		m.extLo = iv.Start
	}
	if iv.End > m.extHi {
		m.extHi = iv.End
	}
}

// Grid returns the granulation paired with the observed endpoint
// extent — the box source every bound computation must use so that
// boundary granules cover clamped (appended out-of-range) endpoints.
func (m *Matrix) Grid() Grid {
	return Grid{Gran: m.Gran, Lo: m.extLo, Hi: m.extHi}
}

// Widen grows the observed endpoint extent to cover [lo, hi]. Engines
// restoring matrices from a snapshot (which does not persist extents)
// re-derive them from the live collections and widen here.
func (m *Matrix) Widen(lo, hi interval.Timestamp) {
	if lo < m.extLo {
		m.extLo = lo
	}
	if hi > m.extHi {
		m.extHi = hi
	}
}

// Merge adds other's counts into m. The granulations must match.
func (m *Matrix) Merge(other *Matrix) error {
	if other.Gran != m.Gran {
		return fmt.Errorf("stats: merging matrices with different granulations %+v vs %+v", m.Gran, other.Gran)
	}
	for l := range m.Counts {
		for lp := range m.Counts[l] {
			m.Counts[l][lp] += other.Counts[l][lp]
		}
	}
	m.total += other.total
	m.Widen(other.extLo, other.extHi)
	return nil
}

// Clone returns a deep copy of the matrix. The engine's append path
// clones before ApplyUpdate so queries that captured the pre-update
// matrix keep reading an immutable snapshot (copy-on-write).
func (m *Matrix) Clone() *Matrix {
	cp := NewMatrix(m.Col, m.Gran)
	for l := range m.Counts {
		copy(cp.Counts[l], m.Counts[l])
	}
	cp.total = m.total
	cp.extLo, cp.extHi = m.extLo, m.extHi
	return cp
}

// Total returns the number of recorded intervals.
func (m *Matrix) Total() int { return m.total }

// Count returns Counts[l][l'].
func (m *Matrix) Count(l, lp int) int { return m.Counts[l][lp] }

// Buckets returns the non-empty buckets in deterministic (row-major)
// order. These are the inputs to TopBuckets' combination enumeration.
func (m *Matrix) Buckets() []Bucket {
	var out []Bucket
	for l := range m.Counts {
		for lp, c := range m.Counts[l] {
			if c > 0 {
				out = append(out, Bucket{Col: m.Col, StartG: l, EndG: lp, Count: c})
			}
		}
	}
	return out
}

// Validate checks internal consistency: no negative counts, no count in
// an impossible cell (an interval cannot end in an earlier granule than
// it starts), and the total matching the cell sum.
func (m *Matrix) Validate() error {
	sum := 0
	for l := range m.Counts {
		for lp, c := range m.Counts[l] {
			if c < 0 {
				return fmt.Errorf("stats: B%d[%d][%d] = %d < 0", m.Col, l, lp, c)
			}
			if c > 0 && lp < l {
				return fmt.Errorf("stats: B%d[%d][%d] = %d but end granule precedes start granule", m.Col, l, lp, c)
			}
			sum += c
		}
	}
	if sum != m.total {
		return fmt.Errorf("stats: B%d total %d != cell sum %d", m.Col, m.total, sum)
	}
	return nil
}

// WithCol returns a shallow copy of the matrix tagged with a different
// collection index, sharing the (immutable after collection) counts.
// The engine uses it when several query vertices read one collection:
// bucket identities are vertex-scoped downstream.
func (m *Matrix) WithCol(col int) *Matrix {
	if col == m.Col {
		return m
	}
	cp := *m
	cp.Col = col
	return &cp
}
