package join

import "sync"

// BatchShare is the batch-scoped score-floor registry of the admission
// layer: every query admitted into one batch executes against the same
// pinned store view, and queries whose plan-identity keys match have
// identical top-k score multisets (the canonical plan key fixes the
// query shape up to vertex relabeling, k, the collections read and
// their granulation — and the batch fixes the epoch), so one query's
// certified k-th-score lower bound is a certified floor for every
// sibling under the same key. N identical queries in a batch prune like
// one query running N times warmer.
//
// A BatchShare is safe for concurrent use by every reducer of every
// batch member. The zero value is not usable; call NewBatchShare.
type BatchShare struct {
	mu     sync.Mutex
	floors map[string]*SharedFloor
}

// NewBatchShare returns an empty registry for one batch.
func NewBatchShare() *BatchShare {
	return &BatchShare{floors: make(map[string]*SharedFloor)}
}

// Floor returns the batch-wide shared floor registered under key,
// creating it if needed, and lifts it to seed. Callers must only share
// a key between executions with identical result-score multisets — the
// admission layer keys it by canonical plan key, which guarantees that.
func (bs *BatchShare) Floor(key string, seed float64) *SharedFloor {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	f := bs.floors[key]
	if f == nil {
		f = NewSharedFloor(seed)
		bs.floors[key] = f
	} else {
		f.Raise(seed)
	}
	return f
}
