package join

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// SharedFloor is the cross-reducer score threshold of the serving
// pipeline: a monotonically increasing max over every reducer's current
// k-th local score, seeded from TopBuckets' certified kthResLB.
//
// Soundness: if any reducer holds k results scoring at least t, the
// global k-th result also scores at least t, so every reducer may
// discard candidates scoring strictly below t. DTB deliberately spreads
// high-scoring combinations across reducers (§3.4) precisely so that
// each one fills its local top-k early; publishing those thresholds
// turns that design into actual cross-reducer early termination instead
// of r private prune floors.
//
// A floor is a value its caller owns and hands to the join as
// ReduceRequest.Shared: the engine makes one per execution, the
// admission layer one per plan-key group of a batch, a shard worker one
// per scattered query. Several executions may share one floor only when
// their result-score multisets are identical (one plan key on one pin),
// which is what makes one execution's certified bound sound for all.
//
// The zero value is a floor of 0 (prune nothing); all methods are safe
// for concurrent use.
type SharedFloor struct {
	bits atomic.Uint64
	// wakes is the immutable list of watcher signals, copy-on-write so
	// Raise's hot path is one pointer load when nobody watches; mu
	// serializes its edits.
	mu    sync.Mutex
	wakes atomic.Pointer[[]chan struct{}]
}

// NewSharedFloor returns a floor seeded at v (negative seeds clamp to 0).
func NewSharedFloor(v float64) *SharedFloor {
	s := &SharedFloor{}
	s.Raise(v)
	return s
}

// Load returns the current floor.
func (s *SharedFloor) Load() float64 {
	return math.Float64frombits(s.bits.Load())
}

// Raise lifts the floor to v if v is higher. NaN and non-positive
// values are ignored, so the floor never regresses and never poisons
// comparisons. A raise that actually lifts the floor wakes every
// watcher; a no-op raise (already at or above v) wakes nobody, so
// duplicate floor broadcasts coming back over the wire terminate
// instead of echoing forever.
func (s *SharedFloor) Raise(v float64) {
	if !(v > 0) {
		return
	}
	for {
		old := s.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			if wakes := s.wakes.Load(); wakes != nil {
				for _, ch := range *wakes {
					select {
					case ch <- struct{}{}:
					default: // a wakeup is already pending: coalesce
					}
				}
			}
			return
		}
	}
}

// Watch makes the floor observable: fn runs once with the current floor
// before Watch returns, then — on a goroutine of Watch's — after every
// Raise that lifts the floor, each time with the floor current when it
// runs. A burst of raises may coalesce into one call, calls never
// overlap, and a slow fn never blocks a raiser. stop unregisters fn and
// waits for its last call to return: no call runs after stop returns.
// stop is idempotent. The shard coordinator's rebroadcaster and each
// worker's uplink are watchers.
func (s *SharedFloor) Watch(fn func(v float64)) (stop func()) {
	wake := make(chan struct{}, 1)
	s.editWakes(func(list []chan struct{}) []chan struct{} {
		return append(slices.Clip(list), wake)
	})
	fn(s.Load())
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-quit:
				return
			case <-wake:
				fn(s.Load())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.editWakes(func(list []chan struct{}) []chan struct{} {
				return slices.DeleteFunc(slices.Clone(list), func(ch chan struct{}) bool { return ch == wake })
			})
			close(quit)
			<-exited
		})
	}
}

// editWakes replaces the watcher list with edit(current); edit must not
// modify the list it is handed.
func (s *SharedFloor) editWakes(edit func([]chan struct{}) []chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur []chan struct{}
	if p := s.wakes.Load(); p != nil {
		cur = *p
	}
	next := edit(cur)
	s.wakes.Store(&next)
}
