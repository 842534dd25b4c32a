package standing

import (
	"fmt"
	"sort"
	"strconv"

	"tkij/internal/join"
)

// Delta is one push to a subscription: the membership change carrying
// the subscriber's materialized top-k from one epoch to the next. A
// subscriber that starts from an empty TopK materializer and applies
// every delta in sequence holds, after each apply, the result list a
// fresh ExecutePinned at that epoch returns, byte for byte.
type Delta struct {
	// Epoch is the store epoch this delta carries the subscription to.
	// One delta may span several append epochs when they landed between
	// two push cycles.
	Epoch int64
	// Seq numbers the subscription's deltas from 1, strictly
	// increasing. An incremental delta applies only at exactly the next
	// sequence number; a resync applies at any later one (it replaces
	// state wholesale, absorbing deltas coalesced away before it).
	Seq uint64
	// Resync marks a full-state delta: TopK replaces the subscriber's
	// materialized results. Emitted for the initial snapshot and after
	// slow-subscriber coalescing.
	Resync bool
	// TopK is a resync delta's full result list (nil otherwise), sorted
	// by the pipeline's total order.
	TopK []join.Result
	// Entered and Left are an incremental delta's membership changes,
	// each sorted by the pipeline's total order (descending score,
	// tuple-ID tie-break). A promoted epoch that changed nothing the
	// subscription reads carries both empty — the delta still advances
	// Epoch.
	Entered []join.Result
	Left    []join.Result
	// Floor is the k-th result score after applying this delta (-1
	// while fewer than k results exist).
	Floor float64
}

// TopK materializes a subscription's result list on the consumer side
// by applying Deltas in order. The zero value is not ready; use
// NewTopK. The first delta on every subscription channel is a resync
// carrying the initial snapshot, so consumers start empty and treat all
// deltas uniformly.
type TopK struct {
	// K is the subscription's result count.
	K int
	// Epoch and Seq identify the last applied delta.
	Epoch int64
	Seq   uint64
	// Results is the materialized top-k, sorted by the pipeline's total
	// order.
	Results []join.Result
}

// NewTopK returns an empty materializer for a subscription serving k
// results.
func NewTopK(k int) *TopK { return &TopK{K: k} }

// Apply folds one delta into the materialized state. It validates the
// delta against the subscription contract — sequence chaining, epoch
// monotonicity, membership consistency, result ordering, size bounds
// and the floor — and returns an error (leaving the state unchanged)
// on any violation: a malformed, reordered or replayed delta must fail
// loudly rather than silently diverge from the server's state.
func (t *TopK) Apply(d Delta) error {
	if d.Epoch < t.Epoch {
		return fmt.Errorf("standing: delta seq %d rewinds epoch %d to %d", d.Seq, t.Epoch, d.Epoch)
	}
	if d.Resync {
		if d.Seq <= t.Seq {
			return fmt.Errorf("standing: resync delta seq %d does not advance seq %d", d.Seq, t.Seq)
		}
		if err := checkSorted(d.TopK); err != nil {
			return fmt.Errorf("standing: resync delta seq %d: %w", d.Seq, err)
		}
		if len(d.TopK) > t.K {
			return fmt.Errorf("standing: resync delta seq %d carries %d results for k=%d", d.Seq, len(d.TopK), t.K)
		}
		if got := floorOf(d.TopK, t.K); got != d.Floor {
			return fmt.Errorf("standing: resync delta seq %d floor %v, results imply %v", d.Seq, d.Floor, got)
		}
		t.Results = append([]join.Result(nil), d.TopK...)
		t.Epoch, t.Seq = d.Epoch, d.Seq
		return nil
	}

	if d.Seq != t.Seq+1 {
		return fmt.Errorf("standing: delta seq %d applied at seq %d (dropped or reordered)", d.Seq, t.Seq)
	}
	if d.TopK != nil {
		return fmt.Errorf("standing: incremental delta seq %d carries a resync result list", d.Seq)
	}
	next := make([]join.Result, 0, len(t.Results)+len(d.Entered))
	leaving := make(map[string]int, len(d.Left))
	for _, r := range d.Left {
		leaving[idKey(r)]++
	}
	for _, r := range t.Results {
		k := idKey(r)
		if leaving[k] > 0 {
			leaving[k]--
			continue
		}
		next = append(next, r)
	}
	for k, n := range leaving {
		if n > 0 {
			return fmt.Errorf("standing: delta seq %d removes result %s not in the materialized top-k", d.Seq, k)
		}
	}
	present := make(map[string]bool, len(next))
	for _, r := range next {
		present[idKey(r)] = true
	}
	for _, r := range d.Entered {
		k := idKey(r)
		if present[k] {
			return fmt.Errorf("standing: delta seq %d enters result %s already in the materialized top-k", d.Seq, k)
		}
		present[k] = true
		next = append(next, r)
	}
	sort.Slice(next, func(i, j int) bool { return join.Less(next[i], next[j]) })
	if len(next) > t.K {
		return fmt.Errorf("standing: delta seq %d grows the top-k to %d for k=%d", d.Seq, len(next), t.K)
	}
	if len(next) < len(t.Results) {
		// Appends only add results, so the top-k never shrinks.
		return fmt.Errorf("standing: delta seq %d shrinks the top-k from %d to %d", d.Seq, len(t.Results), len(next))
	}
	if got := floorOf(next, t.K); got != d.Floor {
		return fmt.Errorf("standing: delta seq %d floor %v, results imply %v", d.Seq, d.Floor, got)
	}
	t.Results = next
	t.Epoch, t.Seq = d.Epoch, d.Seq
	return nil
}

// checkSorted verifies rs is strictly ordered under the pipeline's
// total order (which admits no equal distinct elements: ties break on
// tuple IDs).
func checkSorted(rs []join.Result) error {
	for i := 1; i < len(rs); i++ {
		if !join.Less(rs[i-1], rs[i]) {
			return fmt.Errorf("results out of order at index %d", i)
		}
	}
	return nil
}

// floorOf returns the exact k-th result score, or -1 while fewer than k
// results exist (matching join.TopK.Threshold's not-yet-full contract).
func floorOf(rs []join.Result, k int) float64 {
	if len(rs) < k {
		return -1
	}
	return rs[k-1].Score
}

// idKey is a result's identity: its tuple-ID vector. The pipeline's
// tie-break contract already requires IDs to identify intervals within
// a collection, so the vector identifies a result tuple.
func idKey(r join.Result) string {
	b := make([]byte, 0, len(r.Tuple)*8)
	for _, iv := range r.Tuple {
		b = strconv.AppendInt(b, iv.ID, 10)
		b = append(b, ',')
	}
	return string(b)
}

// diffResults computes the membership difference old -> fresh, both
// sorted under the pipeline's total order; entered and left inherit
// that order.
func diffResults(old, fresh []join.Result) (entered, left []join.Result) {
	oldKeys := make(map[string]bool, len(old))
	for _, r := range old {
		oldKeys[idKey(r)] = true
	}
	freshKeys := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		freshKeys[idKey(r)] = true
	}
	for _, r := range fresh {
		if !oldKeys[idKey(r)] {
			entered = append(entered, r)
		}
	}
	for _, r := range old {
		if !freshKeys[idKey(r)] {
			left = append(left, r)
		}
	}
	return entered, left
}
