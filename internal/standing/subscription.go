package standing

import (
	"context"
	"fmt"
	"sync"

	"tkij/internal/join"
	"tkij/internal/plancache"
	"tkij/internal/query"
)

// Subscription is one registered standing query: a canonical plan key,
// a pinned diff base (epoch, bucket-matrix fingerprint) and the current
// pushed top-k snapshot. The manager advances it on every ingest
// notification; the consumer receives the resulting Deltas on the
// channel returned by Deltas.
//
// Lifecycle: the subscription ends when its context is canceled, when
// Close is called, or when the manager shuts down or hits an execution
// error serving it — in every case the delta channel is closed (Err
// reports the cause, nil for a clean close) and its pinned resources
// are released.
type Subscription struct {
	id      uint64
	m       *Manager
	q       *query.Query
	mapping []int
	k       int
	key     string
	buffer  int
	// The stored context is the subscription's lifetime handle: Subscribe
	// registers long-lived server-side state on the caller's behalf, and
	// cancellation is how the caller unsubscribes remotely. The forwarder
	// goroutine watches it; it is not passed onward per-call except to
	// bound push work done for this subscription.
	//tkij:ignore ctxflow -- the subscription context IS the registration's lifetime; it is stored once at Subscribe and only ever consulted/threaded by the goroutines serving that registration
	ctx context.Context
	// cancel cancels ctx (a Subscribe-derived child of the caller's
	// context); terminate fires it so that executions in flight
	// on this subscription's behalf — which can dwarf the teardown path
	// on large stores — abandon their work instead of running to
	// completion for a consumer that is gone.
	cancel context.CancelFunc

	mu       sync.Mutex
	snapshot []join.Result
	epoch    int64
	state    *plancache.EpochState
	seq      uint64
	queue    []Delta
	lagged   bool
	closed   bool
	err      error

	ch     chan Delta
	notify chan struct{} // capacity 1: queue-changed nudge for the forwarder
	done   chan struct{} // closed by terminate
}

// Deltas returns the subscription's delta channel. The first delta is
// always a resync carrying the initial snapshot. The channel closes
// when the subscription ends; check Err afterwards.
func (s *Subscription) Deltas() <-chan Delta { return s.ch }

// PlanKey returns the canonical plan-identity key the standing plan is
// registered under — isomorphic subscriptions at the same k share it
// (and share plan-cache entries through it).
func (s *Subscription) PlanKey() string { return s.key }

// K returns the subscription's result count.
func (s *Subscription) K() int { return s.k }

// Snapshot returns a copy of the current pushed top-k and the epoch it
// is valid at — the server-side state, which may be ahead of what the
// consumer has drained from Deltas.
func (s *Subscription) Snapshot() ([]join.Result, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]join.Result(nil), s.snapshot...), s.epoch
}

// Epoch returns the store epoch the subscription's pushed state is
// valid at.
func (s *Subscription) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Err returns the terminal error after the delta channel closed: nil
// for a clean close (Close, manager shutdown), the cause otherwise
// (context cancellation, an execution failure while serving it).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close unsubscribes: the subscription is deregistered, pending deltas
// are dropped and the delta channel closes. Idempotent, safe from any
// goroutine.
func (s *Subscription) Close() { s.terminate(nil) }

// terminate ends the subscription with err as its terminal cause (nil
// = clean). First caller wins; idempotent.
func (s *Subscription) terminate(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	close(s.done)
	s.mu.Unlock()
	s.cancel()
	s.m.remove(s.id, err)
}

// commit atomically installs the pushed state for a new epoch and
// queues the incremental delta that carries consumers there, under
// the slow-subscriber policy: when the consumer is not draining fast
// enough, everything pending coalesces into a single resync built from
// the freshly installed snapshot — the manager (and Append behind it)
// never blocks on a subscriber.
func (s *Subscription) commit(epoch int64, state *plancache.EpochState, snapshot []join.Result, d Delta) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.snapshot = snapshot
	s.epoch, s.state = epoch, state
	s.seq++
	var dropped int64
	if s.lagged || len(s.queue) >= s.buffer {
		s.lagged = true
		dropped = droppedIn(s.queue) + 1 // pending increments + d itself
		s.queue = append(s.queue[:0], s.resyncDeltaLocked())
	} else {
		d.Seq = s.seq
		s.queue = append(s.queue, d)
	}
	s.mu.Unlock()
	// Outside s.mu: countDropped takes the manager lock, and the
	// manager's Quiesce holds it while reading s.mu (lock order m -> s).
	s.m.countDropped(dropped)
	s.wakeForwarder()
}

// droppedIn counts the queued incremental deltas a coalescing resync
// supersedes (synthetic resyncs it replaces are not consumer-visible
// losses).
func droppedIn(queue []Delta) int64 {
	var n int64
	for _, d := range queue {
		if !d.Resync {
			n++
		}
	}
	return n
}

// resyncDeltaLocked builds a resync delta from the current snapshot at
// the current seq. Callers hold s.mu.
func (s *Subscription) resyncDeltaLocked() Delta {
	return Delta{
		Epoch:  s.epoch,
		Seq:    s.seq,
		Resync: true,
		TopK:   append([]join.Result(nil), s.snapshot...),
		Floor:  floorOf(s.snapshot, s.k),
	}
}

func (s *Subscription) wakeForwarder() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// forward is the subscription's delivery goroutine: it drains the
// bounded queue into the consumer channel, honoring cancellation, and
// closes the channel when the subscription ends. It is the only writer
// (and closer) of s.ch.
func (s *Subscription) forward() {
	defer s.m.wg.Done()
	defer close(s.ch)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			select {
			case <-s.notify:
			case <-s.ctx.Done():
				s.terminate(fmt.Errorf("standing: subscription context: %w", s.ctx.Err()))
				return
			case <-s.done:
				return
			}
			continue
		}
		d := s.queue[0]
		s.queue = s.queue[:copy(s.queue, s.queue[1:])]
		if d.Resync {
			// The consumer is about to receive the full state; stop
			// coalescing and resume incremental deltas from here.
			s.lagged = false
		}
		s.mu.Unlock()
		select {
		case s.ch <- d:
		case <-s.ctx.Done():
			s.terminate(fmt.Errorf("standing: subscription context: %w", s.ctx.Err()))
			return
		case <-s.done:
			return
		}
	}
}
