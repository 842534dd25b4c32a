// Package join implements TKIJ's distributed join phase (§3.4, steps
// (c)-(e) of Figure 5): each reducer evaluates the full RTJ query on its
// share of Ω_k,S against the dataset-resident buckets — combinations
// visited in descending score-upper-bound order, candidate intervals
// fetched through per-bucket R-trees with score-threshold boxes,
// partial tuples pruned against the current k-th score and a floor
// shared by all reducers — and one merge keeps the global top-k. Run is
// the entry point; RunTasks is the one reducer executor, shared by the
// in-process runner and internal/shard's workers.
package join

import (
	"container/heap"
	"sort"

	"tkij/internal/interval"
)

// Result is one scored query answer.
type Result struct {
	// Tuple holds one interval per query vertex.
	Tuple []interval.Interval
	// Score is the aggregate score assigned by the query's scoring
	// function.
	Score float64
}

// less orders results descending by score with a deterministic ID
// tie-break, so merged output is stable across runs and worker counts.
func less(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	for i := range a.Tuple {
		if a.Tuple[i].ID != b.Tuple[i].ID {
			return a.Tuple[i].ID < b.Tuple[i].ID
		}
	}
	return false
}

// Less reports whether a orders before b under the deterministic total
// order every merge in the pipeline uses: descending score, tuple IDs
// ascending as the tie-break. Exported for layers that must reproduce
// merge order exactly (the standing layer's delta computation and
// materializer).
func Less(a, b Result) bool { return less(a, b) }

// TopK is a bounded collector of the k best results. The zero value is
// unusable; use NewTopK.
type TopK struct {
	k     int
	items resultHeap
}

// resultHeap is a min-heap: the worst retained result sits at the root.
type resultHeap []Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return less(h[j], h[i]) }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// NewTopK returns a collector retaining the k best results.
func NewTopK(k int) *TopK { return &TopK{k: k} }

// Full reports whether k results have been collected.
func (t *TopK) Full() bool { return len(t.items) >= t.k }

// Threshold returns the score a new result must strictly exceed to enter
// a full collector. Before the collector fills it returns -1, so
// zero-scoring tuples are still admitted — TKIJ must return k results
// even when fewer than k tuples satisfy the predicates well (§4.2.5).
func (t *TopK) Threshold() float64 {
	if !t.Full() {
		return -1
	}
	return t.items[0].Score
}

// Add offers a result; it is retained if the collector is not full or
// if it orders before the current worst under the deterministic total
// order (score descending, tuple IDs as tie-break). The tie-break makes
// the collector itself order-independent over the results it is
// offered, but not the join above it: the local join stops pursuing
// candidates whose bound only equals the current k-th score, so which
// tuples tied at the k-th score are offered at all depends on the order
// candidates are enumerated in. Two executions with the same bucket
// index, the same per-bucket item order and the same assignment return
// identical tuples; otherwise results agree only up to ties at the k-th
// score. It reports whether the result was retained — a retention with
// Full() true means Threshold() may have risen, the signal the join
// publishes to the shared floor.
func (t *TopK) Add(r Result) bool {
	if !t.Full() {
		heap.Push(&t.items, r)
		return true
	}
	if less(r, t.items[0]) {
		t.items[0] = r
		heap.Fix(&t.items, 0)
		return true
	}
	return false
}

// Len returns the number of collected results.
func (t *TopK) Len() int { return len(t.items) }

// Results returns the collected results sorted by descending score
// (deterministic under ties). The collector remains usable.
func (t *TopK) Results() []Result {
	out := append([]Result(nil), t.items...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
