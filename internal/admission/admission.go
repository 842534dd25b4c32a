package admission

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"tkij/internal/core"
	"tkij/internal/query"
	"tkij/internal/standing"
)

// Options tunes a Server. The zero value uses the defaults.
type Options struct {
	// MaxQueue caps the Submit calls waiting for an execution slot; a
	// Submit beyond it fails fast with ErrQueueFull — the backpressure
	// signal for callers to shed or retry (<= 0 means 256).
	MaxQueue int
	// MaxInflight caps the queries executing concurrently (<= 0 means
	// runtime.GOMAXPROCS(0): a local execution is one serial join pass,
	// so parallelism comes from running queries side by side). Each
	// execution pins its own epoch view, so
	// this is also the bound on live views under continuous ingest.
	MaxInflight int
}

var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("admission: server closed")
	// ErrQueueFull is the backpressure error: the queue is at MaxQueue
	// and the query was rejected without waiting.
	ErrQueueFull = errors.New("admission: queue full")
)

// Server is the admission layer between the public API and the engine:
// a bounded FIFO queue in front of core.Engine.ExecuteMapped. At most
// MaxInflight Submits execute at once, each on an epoch it pins itself;
// the rest wait in arrival order, at most MaxQueue of them.
// Safe for concurrent use; create with New, stop with Close.
type Server struct {
	e    *core.Engine
	opts Options

	mu      sync.Mutex
	running int             // Submits holding an execution slot
	queue   []chan struct{} // waiting Submits, oldest first; closed to hand over a slot
	closed  bool
	stats   Stats
	active  sync.WaitGroup // accepted Submits that have not returned

	// standing is the standing-query manager, created lazily by the
	// first Subscribe (guarded by mu). An engine carries at most one
	// ingest hook, so the server owns the manager for its engine.
	standing *standing.Manager
}

// New returns a Server over e.
func New(e *core.Engine, opts Options) *Server {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 256
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = runtime.GOMAXPROCS(0)
	}
	return &Server{e: e, opts: opts}
}

// Engine returns the engine the server admits queries into.
func (s *Server) Engine() *core.Engine { return s.e }

// Submit admits q (vertex i reading collection mapping[i]; nil mapping
// means identity), waits in FIFO order for an execution slot and
// executes it, returning the report with BatchSize 1 and QueueWait
// filled in. The context covers the whole call: cancellation or
// deadline expiry while queued — or between execution phases — fails
// this query alone with an error satisfying errors.Is(err,
// core.ErrCanceled). A full queue fails fast with ErrQueueFull.
func (s *Server) Submit(ctx context.Context, q *query.Query, mapping []int) (*core.Report, error) {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var slot chan struct{}
	switch {
	case s.running < s.opts.MaxInflight:
		s.running++
	case len(s.queue) >= s.opts.MaxQueue:
		s.stats.Rejected++
		s.mu.Unlock()
		mRejected.Inc()
		return nil, ErrQueueFull
	default:
		slot = make(chan struct{})
		s.queue = append(s.queue, slot)
		s.stats.QueueHighWater = max(s.stats.QueueHighWater, len(s.queue))
	}
	s.stats.Submitted++
	s.active.Add(1)
	s.mu.Unlock()
	mSubmitted.Inc()

	rep, err := s.execute(ctx, slot, q, mapping)
	s.mu.Lock()
	s.stats.Completed++
	if rep != nil {
		rep.BatchSize = 1
		rep.QueueWait = time.Since(start) - rep.Total
		mQueueWait.ObserveDuration(rep.QueueWait)
		switch {
		case rep.PlanWaited:
			s.stats.PlanFollowers++
			mPlanFollowers.Inc()
		case !rep.PlanCacheHit && !rep.PlanRevalidated:
			s.stats.PlanLeaders++
			mPlanLeaders.Inc()
		}
		s.stats.BoundSolves += rep.Join.BoundSolves
		s.stats.BoundReuses += rep.Join.BoundReuses
	}
	s.mu.Unlock()
	mCompleted.Inc()
	s.active.Done()
	return rep, err
}

// execute waits for slot (nil: the slot is already held), runs the
// query, and hands the slot on.
func (s *Server) execute(ctx context.Context, slot chan struct{}, q *query.Query, mapping []int) (*core.Report, error) {
	if slot != nil {
		select {
		case <-slot:
		case <-ctx.Done():
			s.mu.Lock()
			n := len(s.queue)
			s.queue = slices.DeleteFunc(s.queue, func(c chan struct{}) bool { return c == slot })
			handed := len(s.queue) == n // the slot arrived as the context ended
			s.mu.Unlock()
			if handed {
				s.release()
			}
			return nil, fmt.Errorf("admission: %w while queued: %w", core.ErrCanceled, ctx.Err())
		}
	}
	defer s.release()
	if mapping == nil {
		return s.e.Execute(ctx, q)
	}
	return s.e.ExecuteMapped(ctx, q, mapping)
}

// release gives an execution slot to the oldest waiting Submit, or
// frees it.
func (s *Server) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		s.running--
		return
	}
	close(s.queue[0])
	s.queue = s.queue[1:]
}

// Close stops admission (subsequent Submits fail with ErrClosed), ends
// every subscription, and returns once every accepted Submit — queued
// or executing — has returned. It is safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	m := s.standing
	s.mu.Unlock()
	if m != nil {
		// Terminates every subscription cleanly and detaches the ingest
		// hook before admission stops.
		m.Close()
	}
	s.active.Wait()
}

// Stats returns a snapshot of the server's activity.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
