package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tkij/internal/core"
	"tkij/internal/join"
	"tkij/internal/obs"
	"tkij/internal/query"
	"tkij/internal/standing"
)

// Defaults for Options. The window is deliberately short: it only needs
// to be long enough for concurrent arrivals to coalesce, and every
// query admitted while a batch executes waits for the next cut anyway.
const (
	DefaultWindow      = time.Millisecond
	DefaultMaxBatch    = 32
	DefaultMaxInflight = 2
	// DefaultParallel is the number of batch members executing
	// concurrently within one batch. Each member runs its own reducer
	// goroutines; this bounds the multiplication.
	DefaultParallel = 4
)

// Options tunes a Batcher. The zero value uses the defaults above with
// MaxQueue = 8 × MaxBatch.
type Options struct {
	// Window is the batching window: the delay after a batch's first
	// query during which later arrivals join it (<= 0 means
	// DefaultWindow; the window also closes early when MaxBatch queries
	// have queued). Larger windows trade per-query latency for larger
	// batches and more sharing.
	Window time.Duration
	// MaxBatch caps the queries admitted into one batch (<= 0 means
	// DefaultMaxBatch).
	MaxBatch int
	// MaxQueue caps the queries waiting for a batch cut; a Submit
	// beyond it fails fast with ErrQueueFull — the backpressure signal
	// for callers to shed or retry (<= 0 means 8 × MaxBatch).
	MaxQueue int
	// MaxInflight caps the batches executing concurrently (<= 0 means
	// DefaultMaxInflight). Each in-flight batch holds exactly one
	// pinned store view, so this is also the bound on live epoch views
	// under continuous ingest.
	MaxInflight int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 8 * o.MaxBatch
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	return o
}

var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("admission: batcher closed")
	// ErrQueueFull is the backpressure error: the queue is at MaxQueue
	// and the query was rejected without waiting.
	ErrQueueFull = errors.New("admission: queue full")
)

// Stats is a snapshot of a Batcher's activity.
type Stats struct {
	// Submitted counts accepted Submit calls; Rejected counts Submits
	// refused with ErrQueueFull.
	Submitted int64
	Rejected  int64
	// Completed counts members whose execution finished (successfully
	// or not, including cancellations).
	Completed int64
	// Batches is the number of batches executed; MaxBatchSize the
	// largest batch formed; QueueHighWater the deepest queue observed.
	Batches        int64
	MaxBatchSize   int
	QueueHighWater int
	// PlanLeaders counts distinct plan keys warmed (one TopBuckets
	// solve each); PlanFollowers counts members that rode a sibling's
	// plan instead of solving their own.
	PlanLeaders   int64
	PlanFollowers int64
	// BoundSolves / BoundReuses sum, over every member execution, the
	// per-edge bound solver calls the reducers ran and the ones the
	// plan's memo answered (join.Output.BoundSolves / BoundReuses).
	BoundSolves int64
	BoundReuses int64
}

// member is one admitted query waiting for (or riding) a batch.
type member struct {
	// The stored context is sanctioned: Submit blocks until the batch
	// goroutine resolves the member, so the context never outlives the
	// Submit call that supplied it — it is a handoff across the
	// queue/dispatcher boundary, not storage.
	//tkij:ignore ctxflow -- context crosses the Submit->dispatcher goroutine handoff and dies with the Submit call
	ctx      context.Context
	q        *query.Query
	mapping  []int
	enqueued time.Time
	done     chan outcome
	// floor is the score floor the member executes against, shared with
	// every member of its batch under the same plan key; set when the
	// batch groups its members.
	floor *join.SharedFloor
}

type outcome struct {
	report *core.Report
	err    error
}

// Batcher is the admission and batching layer: it sits between the
// public API and the engine, coalescing concurrent Submit calls into
// short batching windows. Each batch executes against a single pinned
// epoch view, single-flights the planning of identical plan keys, and
// shares one score floor (join.SharedFloor) among the members of each
// plan-key group.
// Safe for concurrent use; create with New, stop with Close.
type Batcher struct {
	e    *core.Engine
	opts Options

	mu     sync.Mutex
	queue  []*member
	closed bool
	stats  Stats

	kick     chan struct{} // wakes the dispatcher (capacity 1)
	inflight chan struct{} // batch-execution semaphore
	wg       sync.WaitGroup

	// standing is the standing-query manager, created lazily by the
	// first Subscribe (guarded by mu). An engine carries at most one
	// ingest hook, so the batcher owns the manager for its engine.
	standing *standing.Manager
}

// New returns a running Batcher over e.
func New(e *core.Engine, opts Options) *Batcher {
	opts = opts.withDefaults()
	b := &Batcher{
		e:        e,
		opts:     opts,
		kick:     make(chan struct{}, 1),
		inflight: make(chan struct{}, opts.MaxInflight),
	}
	b.wg.Add(1)
	go b.dispatch()
	return b
}

// Engine returns the engine the batcher admits queries into.
func (b *Batcher) Engine() *core.Engine { return b.e }

// Submit admits q (vertex i reading collection mapping[i]; nil mapping
// means identity) and blocks until its batch executes, returning the
// per-query report with Batched/BatchSize/QueueWait filled in. The
// context covers the whole wait: cancellation or deadline expiry while
// queued — or between execution phases — fails this query (and only
// this query) with an error satisfying errors.Is(err,
// core.ErrCanceled). A full queue fails fast with ErrQueueFull.
func (b *Batcher) Submit(ctx context.Context, q *query.Query, mapping []int) (*core.Report, error) {
	if mapping == nil {
		mapping = make([]int, q.NumVertices)
		for i := range mapping {
			mapping[i] = i
		}
	}
	m := &member{ctx: ctx, q: q, mapping: mapping, enqueued: time.Now(), done: make(chan outcome, 1)}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if len(b.queue) >= b.opts.MaxQueue {
		// Members canceled while queued were already answered; drop
		// them before charging a live caller for the dead weight.
		b.compactQueueLocked()
	}
	if len(b.queue) >= b.opts.MaxQueue {
		b.stats.Rejected++
		b.mu.Unlock()
		mRejected.Inc()
		return nil, ErrQueueFull
	}
	b.queue = append(b.queue, m)
	b.stats.Submitted++
	mSubmitted.Inc()
	if len(b.queue) > b.stats.QueueHighWater {
		b.stats.QueueHighWater = len(b.queue)
	}
	b.mu.Unlock()
	b.wake()

	select {
	case out := <-m.done:
		return out.report, out.err
	case <-ctx.Done():
		// The member may still be queued or mid-batch; the batch will
		// observe the canceled context and discard the result. Answer
		// the caller now — Submit's contract is that its wait respects
		// the context.
		return nil, fmt.Errorf("admission: %w while queued: %w", core.ErrCanceled, ctx.Err())
	}
}

// Subscribe registers a continuous top-k subscription: q executes once
// at the current epoch and the returned subscription's Deltas channel
// carries that initial snapshot followed by one incremental delta per
// ingest push (see internal/standing). k <= 0 uses the engine's
// Options.K; the subscription lives until ctx is canceled, its Close is
// called, or the batcher closes.
func (b *Batcher) Subscribe(ctx context.Context, q *query.Query, k int, opts standing.SubOptions) (*standing.Subscription, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if b.standing == nil {
		b.standing = standing.NewManager(b.e)
	}
	m := b.standing
	b.mu.Unlock()
	return m.Subscribe(ctx, q, k, opts)
}

// StandingStats returns the standing-query manager's counters (the
// zero Stats before the first Subscribe).
func (b *Batcher) StandingStats() standing.Stats {
	b.mu.Lock()
	m := b.standing
	b.mu.Unlock()
	if m == nil {
		return standing.Stats{}
	}
	return m.Stats()
}

// wake nudges the dispatcher; a pending nudge is enough.
func (b *Batcher) wake() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// compactQueueLocked drops queued members whose context is already
// done: their Submit calls have returned, so they would only waste
// queue capacity and batch slots. Callers hold b.mu.
func (b *Batcher) compactQueueLocked() {
	live := b.queue[:0]
	for _, m := range b.queue {
		if m.ctx.Err() == nil {
			live = append(live, m)
		}
	}
	for i := len(live); i < len(b.queue); i++ {
		b.queue[i] = nil
	}
	b.queue = live
}

// Close stops admission (subsequent Submits fail with ErrClosed),
// flushes every already-queued query, waits for in-flight batches to
// finish, and returns. It is safe to call once.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	m := b.standing
	b.mu.Unlock()
	if m != nil {
		// Terminates every subscription cleanly and detaches the ingest
		// hook before admission stops.
		m.Close()
	}
	b.wake()
	b.wg.Wait()
}

// Stats returns a snapshot of the batcher's activity.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// dispatch is the batching loop: wait for a first arrival, hold the
// window open (cutting early at MaxBatch), cut, and hand the batch to a
// bounded executor. Closed + drained, it exits.
func (b *Batcher) dispatch() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			if b.closed {
				b.mu.Unlock()
				return
			}
			b.mu.Unlock()
			<-b.kick
			continue
		}
		closed := b.closed
		b.mu.Unlock()

		// Batching window: arrivals during it join this batch. Skipped
		// when closing (flush as fast as possible) — and cut early the
		// moment MaxBatch members are waiting. The window is anchored at
		// the oldest queued member's arrival, so a query that already
		// waited behind in-flight batches is not held another full
		// window once the dispatcher gets to it.
		if !closed {
			b.mu.Lock()
			if len(b.queue) == 0 {
				// A Submit hitting a full queue may have compacted away
				// every (canceled) member since the emptiness check.
				b.mu.Unlock()
				continue
			}
			oldest := b.queue[0].enqueued
			b.mu.Unlock()
			timer := time.NewTimer(b.opts.Window - time.Since(oldest))
		window:
			for {
				b.mu.Lock()
				full := len(b.queue) >= b.opts.MaxBatch || b.closed
				b.mu.Unlock()
				if full {
					break
				}
				select {
				case <-timer.C:
					break window
				case <-b.kick:
				}
			}
			timer.Stop()
		}

		b.mu.Lock()
		b.compactQueueLocked()
		if len(b.queue) == 0 {
			b.mu.Unlock()
			continue
		}
		n := min(len(b.queue), b.opts.MaxBatch)
		batch := make([]*member, n)
		copy(batch, b.queue[:n])
		b.queue = append(b.queue[:0:0], b.queue[n:]...)
		b.stats.Batches++
		if n > b.stats.MaxBatchSize {
			b.stats.MaxBatchSize = n
		}
		mBatches.Inc()
		mBatchSize.Observe(float64(n))
		leftover := len(b.queue) > 0
		b.mu.Unlock()
		if leftover {
			b.wake() // reprocess the remainder without waiting for a Submit
		}

		b.inflight <- struct{}{} // MaxInflight bound — also bounds live epoch views
		b.wg.Add(1)
		go func(batch []*member) {
			defer b.wg.Done()
			defer func() { <-b.inflight }()
			b.runBatch(batch)
		}(batch)
	}
}

// runBatch executes one batch: one pinned epoch, plans single-flighted
// and one score floor shared per distinct plan key, members executed by
// a bounded worker pool.
func (b *Batcher) runBatch(batch []*member) {
	// The batch lifecycle roots its own span tree: the dispatcher owns
	// the batch, no single member context does.
	batchSpan := b.e.Tracer().Root("batch")
	if batchSpan != nil {
		batchSpan.SetInt("members", int64(len(batch)))
		defer batchSpan.Finish()
	}
	pinSpan := batchSpan.Child("pin")
	pin, err := b.e.Pin()
	pinSpan.Finish()
	if err != nil {
		for _, m := range batch {
			m.done <- outcome{err: err}
		}
		b.bumpCompleted(len(batch))
		return
	}
	defer pin.Release()
	if batchSpan != nil {
		batchSpan.SetInt("epoch", pin.Epoch())
	}

	// Group members by plan-identity key. Members whose (query,
	// mapping) fails validation fail here, before any planning. A group
	// is exactly the set of executions with one plan key on one pin —
	// identical result-score multisets — so its members share one score
	// floor: one member's certified k-th-score bound prunes them all.
	type group struct {
		members []*member
		floor   *join.SharedFloor
	}
	var groups []*group
	byKey := make(map[string]*group)
	live := batch[:0:0]
	for _, m := range batch {
		key, err := pin.PlanKey(m.q, m.mapping, b.e.Options().K)
		if err != nil {
			m.done <- outcome{err: err}
			b.bumpCompleted(1)
			continue
		}
		g := byKey[key]
		if g == nil {
			g = &group{floor: new(join.SharedFloor)}
			byKey[key] = g
			groups = append(groups, g)
		}
		m.floor = g.floor
		g.members = append(g.members, m)
		live = append(live, m)
	}
	if len(live) == 0 {
		return
	}

	// Single-flight the planning: one leader per distinct key warms the
	// plan cache at the pinned epoch; every member then executes as a
	// cache hit. Leaders run under a background context — a canceled
	// member must not abort planning its siblings still need. With the
	// plan cache disabled the warm-up would be discarded work (nothing
	// is inserted), so skip it and let every member plan cold.
	var wg sync.WaitGroup
	sem := make(chan struct{}, DefaultParallel)
	if !b.e.Options().PlanCache.Disabled {
		solveSpan := batchSpan.Child("leader-solve")
		var leaders, followers int64
		for _, g := range groups {
			// Warm on behalf of a member that is still interested; a
			// group whose members were all canceled while queued skips
			// the solve — they abort on their own contexts below.
			var lead *member
			for _, m := range g.members {
				if m.ctx.Err() == nil {
					lead = m
					break
				}
			}
			if lead == nil {
				continue
			}
			leaders++
			followers += int64(len(g.members) - 1)
			wg.Add(1)
			sem <- struct{}{}
			go func(lead *member) {
				defer wg.Done()
				defer func() { <-sem }()
				// A plan error surfaces per-member below; warming is
				// best effort. The warm must not be torn down by the
				// lead's own cancellation mid-solve (followers still
				// want the plan), but it keeps the lead's values.
				_ = b.e.PlanPinned(context.WithoutCancel(lead.ctx), lead.q, lead.mapping, pin)
			}(lead)
		}
		wg.Wait()
		if solveSpan != nil {
			solveSpan.SetInt("leaders", leaders)
			solveSpan.SetInt("followers", followers)
			solveSpan.Finish()
		}
		mPlanLeaders.Add(leaders)
		mPlanFollowers.Add(followers)
		b.mu.Lock()
		b.stats.PlanLeaders += leaders
		b.stats.PlanFollowers += followers
		b.mu.Unlock()
	}

	// Execute every member against the shared pin and its group's floor.
	for _, m := range live {
		wg.Add(1)
		sem <- struct{}{}
		go func(m *member) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			wait := start.Sub(m.enqueued)
			mQueueWait.ObserveDuration(wait)
			mspan := batchSpan.Child("member")
			if mspan != nil {
				mspan.SetInt("queue_wait_us", wait.Microseconds())
			}
			rep, err := b.e.ExecutePinned(obs.WithSpan(m.ctx, mspan), m.q, m.mapping, pin, b.e.Options().K, m.floor)
			mspan.Finish()
			if rep != nil {
				rep.Batched = true
				rep.BatchSize = len(live)
				rep.QueueWait = wait
				b.mu.Lock()
				b.stats.BoundSolves += rep.Join.BoundSolves
				b.stats.BoundReuses += rep.Join.BoundReuses
				b.mu.Unlock()
			}
			m.done <- outcome{report: rep, err: err}
			b.bumpCompleted(1)
		}(m)
	}
	wg.Wait()
}

func (b *Batcher) bumpCompleted(n int) {
	mCompleted.Add(int64(n))
	b.mu.Lock()
	b.stats.Completed += int64(n)
	b.mu.Unlock()
}
