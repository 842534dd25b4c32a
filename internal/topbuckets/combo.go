package topbuckets

import (
	"cmp"
	"fmt"

	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
)

// Combo is one bucket combination ω = (b_{1,l1,l1'}, ..., b_{n,ln,ln'})
// with its score bounds and result count ω.nbRes = Π |b_i|.
type Combo struct {
	// Buckets has one bucket per query vertex, Buckets[i] drawn from the
	// matrix of collection i.
	Buckets []stats.Bucket
	// LB and UB bound the aggregate score of every tuple drawn from the
	// combination (Definition 1).
	LB, UB float64
	// NbRes is the number of candidate tuples in the combination. It is
	// kept as float64 because products of bucket cardinalities overflow
	// int64 for large n (the paper reports >1e13 results per combination
	// at §4.2.6 scale).
	NbRes float64
}

// compareTuples orders two equal-length bucket tuples by (Col, StartG,
// EndG) per vertex, first vertex most significant: the deterministic
// tie-break of the selection order.
func compareTuples(a, b []stats.Bucket) int {
	for v := range a {
		x, y := &a[v], &b[v]
		switch {
		case x.Col != y.Col:
			return cmp.Compare(x.Col, y.Col)
		case x.StartG != y.StartG:
			return cmp.Compare(x.StartG, y.StartG)
		case x.EndG != y.EndG:
			return cmp.Compare(x.EndG, y.EndG)
		}
	}
	return 0
}

// BoxOf is the solver's endpoint domain of bucket b under grid g: the
// start variable ranges over the bucket's start granule and the end
// variable over its end granule (constraints (1)(2) of the Bounds
// Problem in §3.3), boundary granules widened to the observed endpoint
// extent so the box contains clamped appends. Every bound computation —
// here and in the join — derives its boxes through it, which is what
// makes their solver.PairMemo keys agree.
func BoxOf(g stats.Grid, b stats.Bucket) solver.VertexBox {
	var box solver.VertexBox
	box.StartLo, box.StartHi = g.Bounds(b.StartG)
	box.EndLo, box.EndHi = g.Bounds(b.EndG)
	return box
}

// boxesFor appends a combination's solver vertex boxes to dst.
func boxesFor(matrices []*stats.Matrix, buckets []stats.Bucket, dst []solver.VertexBox) []solver.VertexBox {
	for i, b := range buckets {
		dst = append(dst, BoxOf(matrices[i].Grid(), b))
	}
	return dst
}

// enumerate walks the combination space Ω — the cartesian product of
// each collection's non-empty buckets — in deterministic row-major
// order, invoking fn with each combination's bucket tuple. The slice is
// reused across calls; fn must copy what it retains.
func enumerate(bucketLists [][]stats.Bucket, fn func(buckets []stats.Bucket)) {
	n := len(bucketLists)
	idx := make([]int, n)
	cur := make([]stats.Bucket, n)
	for {
		for i := 0; i < n; i++ {
			cur[i] = bucketLists[i][idx[i]]
		}
		fn(cur)
		// Odometer increment, last position fastest.
		i := n - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(bucketLists[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// comboCount returns |Ω| for the given bucket lists.
func comboCount(bucketLists [][]stats.Bucket) float64 {
	total := 1.0
	for _, bl := range bucketLists {
		total *= float64(len(bl))
	}
	return total
}

// nbRes returns the number of candidate results of a bucket tuple.
func nbRes(buckets []stats.Bucket) float64 {
	n := 1.0
	for _, b := range buckets {
		n *= float64(b.Count)
	}
	return n
}

// validateInputs checks that the query and matrices are mutually
// consistent.
func validateInputs(q *query.Query, matrices []*stats.Matrix, k int) ([][]stats.Bucket, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("topbuckets: k must be >= 1, got %d", k)
	}
	if len(matrices) != q.NumVertices {
		return nil, fmt.Errorf("topbuckets: query %s has %d vertices but %d matrices given", q.Name, q.NumVertices, len(matrices))
	}
	lists := make([][]stats.Bucket, len(matrices))
	for i, m := range matrices {
		if m == nil {
			return nil, fmt.Errorf("topbuckets: matrix %d is nil", i)
		}
		lists[i] = m.Buckets()
		if len(lists[i]) == 0 {
			return nil, fmt.Errorf("topbuckets: collection %d has no data", i)
		}
	}
	return lists, nil
}
