package standing

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"tkij/internal/core"
	"tkij/internal/obs"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/stats"
)

// ErrClosed is returned by Subscribe after the manager shut down.
var ErrClosed = errors.New("standing: manager closed")

// DefaultBuffer is the default per-subscription delta-queue capacity.
const DefaultBuffer = 16

// SubOptions tunes one subscription.
type SubOptions struct {
	// Mapping maps query vertices to collection indices (nil =
	// identity, like Engine.Execute).
	Mapping []int
	// Buffer is the subscription's delta-queue capacity before the
	// slow-subscriber policy coalesces pending deltas into a resync
	// (<= 0 means DefaultBuffer).
	Buffer int
}

// Stats counts the manager's work since construction. Snapshot via
// Manager.Stats.
type Stats struct {
	// Subscribed and Unsubscribed count registrations and removals
	// (Unsubscribed includes failures; Failed counts the subset
	// terminated by an error).
	Subscribed   int64
	Unsubscribed int64
	Failed       int64
	// Cycles counts ingest-notification cycles served (one pin each).
	Cycles int64
	// Pushes counts incremental delta pushes; Promotions the cycles
	// where a subscription's epoch advanced with provably unchanged
	// results; Resyncs the full-state re-bases.
	Pushes     int64
	Promotions int64
	Resyncs    int64
	// ProbedCombos sums the combinations the pushes' executions read
	// from their plans (CombosAssigned over the join's reducers).
	ProbedCombos int64
	// DroppedDeltas counts incremental deltas coalesced away by the
	// slow-subscriber policy (each followed by a resync).
	DroppedDeltas int64
}

// Manager serves standing queries over one engine: it registers
// subscriptions, listens for the engine's ingest notifications and, per
// published epoch, pins once and carries every subscription forward —
// by promotion when nothing it reads grew, otherwise by one execution at
// the pin diffed against the pushed top-k. Safe for concurrent use.
type Manager struct {
	e *core.Engine

	mu     sync.Mutex
	cond   *sync.Cond // broadcast after every cycle and every removal
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool
	stats  Stats

	kick chan struct{} // capacity 1: ingest-notification nudge
	done chan struct{}
	wg   sync.WaitGroup
}

// NewManager returns a manager serving standing queries over e and
// installs itself as e's ingest hook. Close detaches it; an engine
// carries at most one manager at a time.
func NewManager(e *core.Engine) *Manager {
	m := &Manager{
		e:    e,
		subs: make(map[uint64]*Subscription),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	e.SetIngestHook(m.wake)
	m.wg.Add(1)
	go m.loop()
	return m
}

// wake nudges the dispatcher; it never blocks (it runs inside Append's
// caller, after the engine lock is released).
func (m *Manager) wake() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// loop is the dispatcher goroutine: one cycle per ingest nudge,
// coalescing bursts (a cycle started after N appends serves all N).
func (m *Manager) loop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case <-m.kick:
		}
		m.cycle()
		m.mu.Lock()
		m.stats.Cycles++
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// subOrder orders subscriptions by registration id — the deterministic
// service order inside a cycle.
func subOrder(a, b *Subscription) int {
	switch {
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	}
	return 0
}

// cycle pins the current epoch once and pushes every live subscription
// to it.
func (m *Manager) cycle() {
	m.mu.Lock()
	live := make([]*Subscription, 0, len(m.subs))
	for _, s := range m.subs {
		live = append(live, s)
	}
	m.mu.Unlock()
	if len(live) == 0 {
		return
	}
	slices.SortFunc(live, subOrder)

	cycleSpan := m.e.Tracer().Root("push-cycle")
	start := time.Now()
	pin, err := m.e.Pin()
	if err != nil {
		cycleSpan.Finish()
		for _, s := range live {
			s.terminate(fmt.Errorf("standing: pin for push cycle: %w", err))
		}
		return
	}
	defer pin.Release()
	if cycleSpan != nil {
		cycleSpan.SetInt("epoch", pin.Epoch())
		cycleSpan.SetInt("subscriptions", int64(len(live)))
	}
	for _, s := range live {
		m.push(s, pin, cycleSpan)
	}
	mCycles.Inc()
	mCycleSeconds.ObserveDuration(time.Since(start))
	cycleSpan.Finish()
}

// push carries one subscription from its current pushed state to the
// pin's epoch by one of three routes: promote (nothing the subscription
// reads grew: an empty delta), resync (the diff base is void: the full
// state) or push (one execution at the pin, committed as its membership
// difference from the pushed top-k). Push and resync share that
// execution; they differ only in the delta they commit.
func (m *Manager) push(s *Subscription, pin *core.Pin, cycleSpan *obs.Span) {
	if s.ctx.Err() != nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	snapshot := s.snapshot
	epoch0, gen0, state := s.epoch, s.gen, s.state
	s.mu.Unlock()

	epoch, gen := pin.Epoch(), pin.Generation()
	if epoch == epoch0 && gen == gen0 {
		return // already there (a burst served by an earlier cycle)
	}

	vms := make([]*stats.Matrix, s.q.NumVertices)
	for v, ci := range s.mapping {
		vms[v] = pin.Matrices()[ci].WithCol(v)
	}

	// A store rebuild (InvalidateStore), a restarted epoch sequence or a
	// granulation swap voids the diff base.
	resync := gen != gen0 || epoch < epoch0
	if !resync {
		diff, ok := state.Diff(vms, nil)
		resync = !ok
		if ok && !diff.AnyGrown() {
			// Nothing this subscription reads changed: promote the
			// pushed state to the new epoch with an empty delta.
			s.commit(epoch, gen, state, snapshot, Delta{
				Epoch: epoch,
				Floor: floorOf(snapshot, s.k),
			})
			m.count(func(st *Stats) { st.Promotions++ })
			mRoutePromote.Inc()
			if ps := cycleSpan.Child("promote"); ps != nil {
				ps.SetInt("epoch", epoch)
				ps.Finish()
			}
			return
		}
	}

	route := "push"
	if resync {
		route = "resync"
	}
	span := cycleSpan.Child(route)
	rep, err := m.e.ExecutePinned(obs.WithSpan(s.ctx, span), s.q, s.mapping, pin, s.k)
	span.Finish()
	if err != nil {
		if s.ctx.Err() != nil {
			return // the forwarder terminates it with the ctx cause
		}
		s.terminate(fmt.Errorf("standing: %s execute: %w", route, err))
		return
	}
	rep.Standing = true
	state = plancache.CaptureEpochState(vms)
	if resync {
		s.commitResync(epoch, gen, state, rep.Results)
		m.count(func(st *Stats) { st.Resyncs++ })
		mRouteResync.Inc()
		return
	}
	var read int64
	for _, l := range rep.Join.Locals {
		read += int64(l.CombosAssigned)
	}
	entered, left := diffResults(snapshot, rep.Results)
	s.commit(epoch, gen, state, rep.Results, Delta{
		Epoch:   epoch,
		Entered: entered,
		Left:    left,
		Floor:   floorOf(rep.Results, s.k),
	})
	m.count(func(st *Stats) {
		st.Pushes++
		st.ProbedCombos += read
	})
	mRoutePush.Inc()
	mProbedCombos.Add(read)
}

// Subscribe registers a standing query: it executes (q, k) once at the
// current epoch, pins that result as the subscription's pushed state and
// returns the handle whose Deltas channel first carries a resync with
// the initial snapshot, then one delta per push cycle. The subscription
// lives until ctx is canceled, Close is called on it, or the manager
// shuts down. k <= 0 uses the engine's Options.K.
func (m *Manager) Subscribe(ctx context.Context, q *query.Query, k int, opts SubOptions) (*Subscription, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("standing: subscribe: %w", err)
	}
	if k <= 0 {
		k = m.e.Options().K
	}
	mapping := opts.Mapping
	if mapping == nil {
		mapping = make([]int, q.NumVertices)
		for v := range mapping {
			mapping[v] = v
		}
	} else {
		mapping = append([]int(nil), mapping...)
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = DefaultBuffer
	}

	pin, err := m.e.Pin()
	if err != nil {
		return nil, fmt.Errorf("standing: subscribe: %w", err)
	}
	defer pin.Release()
	key, err := pin.PlanKey(q, mapping, k)
	if err != nil {
		return nil, fmt.Errorf("standing: subscribe: %w", err)
	}
	rep, err := m.e.ExecutePinned(ctx, q, mapping, pin, k)
	if err != nil {
		return nil, fmt.Errorf("standing: subscribe: %w", err)
	}
	rep.Standing = true
	vms := make([]*stats.Matrix, q.NumVertices)
	for v, ci := range mapping {
		vms[v] = pin.Matrices()[ci].WithCol(v)
	}

	// The subscription runs on a derived context so terminate can cancel
	// work in flight on its behalf (a push's execution outlives
	// every consumer otherwise).
	sctx, scancel := context.WithCancel(ctx)
	s := &Subscription{
		m:        m,
		q:        q,
		mapping:  mapping,
		k:        k,
		key:      key,
		buffer:   buffer,
		ctx:      sctx,
		cancel:   scancel,
		snapshot: rep.Results,
		epoch:    pin.Epoch(),
		gen:      pin.Generation(),
		state:    plancache.CaptureEpochState(vms),
		ch:       make(chan Delta, 1),
		notify:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		scancel()
		return nil, ErrClosed
	}
	m.nextID++
	s.id = m.nextID
	m.subs[s.id] = s
	m.stats.Subscribed++
	m.wg.Add(1)
	m.mu.Unlock()

	go s.forward()
	// Queue the initial snapshot as the channel's first (resync) delta,
	// then self-kick: any epoch published between our pin and the
	// registration above is caught by the next cycle.
	s.commitResync(s.epoch, s.gen, s.state, s.snapshot)
	m.wake()
	return s, nil
}

// remove deregisters a terminated subscription (called by terminate,
// exactly once per subscription).
func (m *Manager) remove(id uint64, err error) {
	m.mu.Lock()
	if _, ok := m.subs[id]; ok {
		delete(m.subs, id)
		m.stats.Unsubscribed++
		if err != nil {
			m.stats.Failed++
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// countDropped accumulates coalesced-away deltas into the stats.
func (m *Manager) countDropped(n int64) {
	if n == 0 {
		return
	}
	mDroppedDeltas.Add(n)
	m.count(func(st *Stats) { st.DroppedDeltas += n })
}

func (m *Manager) count(f func(*Stats)) {
	m.mu.Lock()
	f(&m.stats)
	m.mu.Unlock()
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Quiesce blocks until every live subscription's pushed state has
// reached the engine's current epoch and generation (subscriptions
// terminating while it waits stop counting). It does not wait for
// consumers to drain their delta channels — only for the server-side
// push. Primarily for tests and benchmarks that interleave appends with
// assertions on pushed state.
func (m *Manager) Quiesce() {
	for {
		epoch, gen := m.e.Epoch(), m.e.StoreGeneration()
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		behind := false
		for _, s := range m.subs {
			s.mu.Lock()
			if s.epoch != epoch || s.gen != gen {
				behind = true
			}
			s.mu.Unlock()
			if behind {
				break
			}
		}
		if !behind {
			m.mu.Unlock()
			// Re-check against the engine: an append may have landed
			// while we held m.mu.
			if e2, g2 := m.e.Epoch(), m.e.StoreGeneration(); e2 == epoch && g2 == gen {
				return
			}
			continue
		}
		m.cond.Wait()
		m.mu.Unlock()
	}
}

// Close shuts the manager down: it detaches the ingest hook, terminates
// every subscription cleanly (their delta channels close with a nil
// Err) and waits for the dispatcher and all forwarders to exit.
// Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	live := make([]*Subscription, 0, len(m.subs))
	for _, s := range m.subs {
		live = append(live, s)
	}
	m.mu.Unlock()
	slices.SortFunc(live, subOrder)

	m.e.SetIngestHook(nil)
	close(m.done)
	for _, s := range live {
		s.terminate(nil)
	}
	m.wg.Wait()
}
