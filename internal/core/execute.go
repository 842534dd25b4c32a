package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tkij/internal/join"
	"tkij/internal/obs"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/shard"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// ErrCanceled marks an execution aborted — between phases or mid-join —
// because its context was canceled or its deadline expired. Errors
// returned for such executions satisfy errors.Is for both ErrCanceled
// and the context's own error (context.Canceled /
// context.DeadlineExceeded).
var ErrCanceled = errors.New("execution canceled")

// checkCtx translates a done context into the engine's distinct
// cancellation error; nil while the context is live.
func checkCtx(ctx context.Context, phase string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %w before %s: %w", ErrCanceled, phase, err)
	}
	return nil
}

// Pin is one pinned execution context: the bucket matrices and the
// epoch-pinned store view captured as a single consistent unit. The
// engine pins one per Execute; the standing layer pins one per push
// cycle and serves every subscription of the cycle on it. The store's
// live-view count is the number of pins not yet released. Release it
// when the executions using it have completed; Release is idempotent.
type Pin struct {
	e        *Engine
	matrices []*stats.Matrix
	store    *store.Store
	view     *store.View
	// runner is the shard cluster the pin's executions scatter to; nil
	// runs the local in-process runner. gated marks that the pin holds
	// the engine's scatter gate (read side) and must give it back on
	// Release.
	runner   join.Runner
	gated    bool
	released atomic.Bool
}

// Pin captures (matrices, store view) at the current epoch, running
// the offline preparation first if needed. When a shard cluster is
// active the pin also holds the scatter gate until Release, so worker
// replicas stay at the pinned epoch for the pin's whole lifetime.
func (e *Engine) Pin() (*Pin, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.prepareLocked(); err != nil {
		return nil, err
	}
	p := &Pin{e: e, matrices: e.matrices, store: e.store}
	if e.cluster != nil {
		e.shardGate.RLock()
		p.runner = e.cluster
		p.gated = true
	}
	view := e.store.View()
	p.view = view
	return p, nil
}

// Epoch returns the store epoch the pin captured.
func (p *Pin) Epoch() int64 { return p.view.Epoch() }

// Matrices returns the collection-indexed bucket matrices captured at
// pin time. They are shared with every execution on this pin — treat
// them as read-only.
func (p *Pin) Matrices() []*stats.Matrix { return p.matrices }

// Release retires the pin's store view from the live-view accounting
// and, on a sharded engine, reopens the scatter gate for appends.
func (p *Pin) Release() {
	if p != nil && !p.released.Swap(true) {
		p.view.Release()
		if p.gated {
			p.e.shardGate.RUnlock()
		}
	}
}

// PlanKey returns the canonical plan-identity key of (q, mapping)
// planned for k results under the pin's granulation — the key the plan
// cache files the shape under, and the key a standing subscription
// records its plan by. k is part of plan identity.
func (p *Pin) PlanKey(q *query.Query, mapping []int, k int) (string, error) {
	if err := p.e.validateMapping(q, mapping); err != nil {
		return "", err
	}
	grans := make([]stats.Granulation, q.NumVertices)
	for v, ci := range mapping {
		grans[v] = p.matrices[ci].Gran
	}
	return plancache.Key(q, mapping, k, grans), nil
}

// validateMapping checks q and its vertex-to-collection mapping against
// the engine's dataset — the single source of the input contract every
// execution entry point (Execute, PlanKey, pinned execution) enforces.
func (e *Engine) validateMapping(q *query.Query, mapping []int) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if len(mapping) != q.NumVertices {
		return fmt.Errorf("core: mapping has %d entries for %d vertices", len(mapping), q.NumVertices)
	}
	for v, ci := range mapping {
		if ci < 0 || ci >= len(e.cols) {
			return fmt.Errorf("core: vertex %d mapped to collection %d of %d", v, ci, len(e.cols))
		}
	}
	return nil
}

// Report describes one query execution end to end. The phase durations
// are measured as disjoint sub-windows of Total — each phase is timed
// around exactly one thing, nothing is counted twice — so
// TopBucketsTime + DistributeTime + JoinTime + MergeTime never exceeds
// Total (the remainder is per-query setup: validation, epoch pinning,
// report assembly).
type Report struct {
	// Query is the executed query.
	Query *query.Query
	// Results is the final top-k, sorted by descending score; never nil
	// (an execution with no results yields an empty slice).
	Results []join.Result

	// TopBuckets is the pruning phase's outcome: the plan of Ω_k,S, with
	// the certified kthResLB floor. Its combinations are built as they
	// are read: the local join read Join.Locals[0].CombosAssigned of them
	// (Plan.Drain builds the rest). On a plan-cache hit it is the shared
	// cached plan.
	TopBuckets *topbuckets.Plan
	// Join is the join + merge phases' full output (per-reducer local
	// statistics, a sharded run's routed-reference accounting, the final
	// score floor).
	Join *join.Output

	// TreesBuilt and TreesReused attribute bucket-store R-tree activity
	// to this execution (store counter deltas; under concurrent Execute
	// calls activity is attributed to whichever query observed it).
	// A warm engine re-running a query reports TreesBuilt == 0.
	// TreesBuilt counts sealed-tree builds only; small delta trees over
	// freshly appended intervals are counted in DeltaTreesBuilt.
	// TreesReused counts memoized indexes found built when a bucket was
	// resolved (once per combination per reducer), not individual probes.
	TreesBuilt      int64
	TreesReused     int64
	DeltaTreesBuilt int64

	// Epoch is the store epoch the query was pinned at on admission:
	// exactly the append batches with epoch <= Epoch were visible, no
	// matter how many landed while the query ran.
	Epoch int64

	// BatchSize is 1 when the execution was admitted through a server
	// (admission.Server.Submit) and 0 for a direct Execute; the server
	// fills it and QueueWait.
	BatchSize int
	// QueueWait is the time from Submit's entry to the start of this
	// execution: the wait for an execution slot plus validation and
	// the epoch pin.
	QueueWait time.Duration

	// ShardCount is the number of shard workers the join scattered to
	// (0 for a local, single-process execution). The three fields below
	// are meaningful only when it is non-zero.
	ShardCount int
	// ShardShippedBuckets and ShardShippedRecords count foreign bucket
	// payloads the coordinator shipped to shards that needed buckets
	// they do not own (the distributed replication cost DTB minimizes).
	ShardShippedBuckets int
	ShardShippedRecords float64
	// ShardFloorFrames counts floor-broadcast frames exchanged with the
	// workers in both directions.
	ShardFloorFrames int64

	// PlanCacheHit reports that the planning phases were skipped
	// entirely: a cached plan for this query shape at this exact epoch
	// was served, and TopBucketsTime is just the cache lookup.
	PlanCacheHit bool
	// PlanRevalidated reports that a cached plan from an earlier epoch
	// was promoted verbatim across Append epoch bumps that changed no
	// bucket's shape (a shape change plans again: a miss).
	// TopBucketsTime is the promotion cost.
	PlanRevalidated bool
	// PlanSavedTime is the wall time the original full plan cost when it
	// was first computed — the planning work a Hit or Revalidated
	// execution did not repeat. Zero when the plan was computed cold.
	PlanSavedTime time.Duration
	// PlanWaited reports that the plan cache found this execution's
	// plan being computed by a concurrent execution (same plan key and
	// epoch) and the execution waited for it instead of planning again
	// (plancache.Planned.Waited); the wait is inside TopBucketsTime.
	PlanWaited bool

	// TopBucketsTime is the wall time of phase 1 (TopBuckets pruning),
	// or of the plan-cache lookup / promotion that replaced it.
	TopBucketsTime time.Duration
	// DistributeTime is the wall time of phase 2 (reducer assignment):
	// always zero, as a local query is one reducer and a sharded run's
	// coordinator assigns inside JoinTime.
	DistributeTime time.Duration
	// JoinTime is the wall time of the join phase, measured around
	// exactly that phase (see join.Output.JoinDuration).
	JoinTime time.Duration
	// MergeTime is the wall time of the merge, measured the same way.
	MergeTime time.Duration
	// Total is the end-to-end wall time of Execute after admission
	// (query-time only; the offline statistics phase is reported on the
	// Engine as StatsDuration).
	Total time.Duration
}

// PlanOutcome renders how the planning phases were served — "hit",
// "revalidated", or "miss" — in the plan cache's own terminology
// (plancache.Outcome).
func (r *Report) PlanOutcome() string {
	switch {
	case r.PlanCacheHit:
		return plancache.Hit.String()
	case r.PlanRevalidated:
		return plancache.Revalidated.String()
	}
	return plancache.Miss.String()
}

// Imbalance returns the join phase's reducer imbalance (max/avg
// reducer wall time, Figure 10b), for local and sharded runs alike.
func (r *Report) Imbalance() float64 {
	if r.Join == nil {
		return 0
	}
	return r.Join.JoinMetrics.Imbalance()
}

// Execute evaluates q with vertex i reading collection i. It is safe to
// call concurrently with other Execute calls on the same engine. ctx
// cancellation (or deadline expiry) aborts the execution — after
// planning, mid-combination inside the reducers, or between join and
// merge — with an error satisfying errors.Is(err, ErrCanceled).
func (e *Engine) Execute(ctx context.Context, q *query.Query) (*Report, error) {
	mapping := make([]int, q.NumVertices)
	for i := range mapping {
		mapping[i] = i
	}
	return e.ExecuteMapped(ctx, q, mapping)
}

// ExecuteMapped evaluates q with vertex i reading collection
// mapping[i], planning for the engine's Options.K on an epoch it pins
// itself. Several vertices may share one collection — the paper's
// network-traffic experiments copy one connection list three times and
// run 3-way queries over it (§4.3.1).
func (e *Engine) ExecuteMapped(ctx context.Context, q *query.Query, mapping []int) (*Report, error) {
	// Reject invalid input before paying for the offline preparation a
	// Pin may trigger on a cold engine.
	if err := e.validateMapping(q, mapping); err != nil {
		return nil, err
	}
	pin, err := e.Pin()
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	return e.execute(ctx, q, mapping, pin, e.opts.K)
}

// pinnedInputs assembles, from a pin, the per-vertex planning matrices
// and the join request every execution on that pin starts from: query,
// mapping, per-vertex sources, k and the shard scatter's
// reducer count. Callers add the plan and the floor.
func (e *Engine) pinnedInputs(q *query.Query, mapping []int, pin *Pin, k int) ([]*stats.Matrix, *join.ReduceRequest) {
	vertexMs := make([]*stats.Matrix, q.NumVertices)
	req := &join.ReduceRequest{
		Query:    q,
		Mapping:  mapping,
		Srcs:     make([]join.Source, q.NumVertices),
		Reducers: e.opts.Reducers,
		K:        k,
	}
	for v, ci := range mapping {
		vertexMs[v] = pin.matrices[ci].WithCol(v)
		req.Srcs[v] = pin.view.Col(ci)
	}
	return vertexMs, req
}

// plan is the planning half of an execution: TopBuckets for (q,
// mapping, k) at the pin's epoch, through the plan cache. The plan is a
// pure function of (query shape, k, granulation, matrices epoch) — a
// repeated shape at an unchanged epoch skips planning, and an epoch
// bump that changed no bucket's shape promotes the cached plan instead
// of planning again.
func (e *Engine) plan(ctx context.Context, q *query.Query, mapping []int, vertexMs []*stats.Matrix,
	pin *Pin, k int) (*plancache.Planned, error) {
	if err := checkCtx(ctx, "planning"); err != nil {
		return nil, err
	}
	return e.plans.Plan(plancache.Request{
		Query:      q,
		Matrices:   vertexMs,
		VertexCols: mapping,
		K:          k,
		Epoch:      pin.Epoch(),
	})
}

// joinMerge is the execution half: it runs join + merge through the
// pin's runner under a "join" span, and translates a cancellation
// abort. The span rides the context into the runner, so a shard cluster
// hangs its scatter/gather children under it.
func (e *Engine) joinMerge(ctx context.Context, pin *Pin, req *join.ReduceRequest) (*join.Output, error) {
	if err := checkCtx(ctx, "join"); err != nil {
		return nil, err
	}
	span := obs.SpanFrom(ctx).Child("join")
	out, err := join.Run(obs.WithSpan(ctx, span), req, pin.runner)
	if span != nil && out != nil {
		read := 0
		for _, l := range out.Locals {
			read += l.CombosAssigned
		}
		span.SetInt("combos", int64(read))
	}
	span.Finish()
	if err != nil {
		// Translate only genuine cancellation aborts; a real join
		// failure that merely races a deadline must surface as itself.
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return nil, fmt.Errorf("core: %w during join: %w", ErrCanceled, cerr)
		}
		return nil, err
	}
	return out, nil
}

// ExecutePinned evaluates q for its top k against a pre-pinned epoch
// instead of pinning its own: the standing layer serves each
// subscription at its own k on its push cycle's pin. k is part of
// plan-cache identity, so plans at different k never alias. The pin
// stays valid after the call; releasing it is the caller's
// responsibility.
func (e *Engine) ExecutePinned(ctx context.Context, q *query.Query, mapping []int, pin *Pin, k int) (*Report, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if err := e.validateMapping(q, mapping); err != nil {
		return nil, err
	}
	return e.execute(ctx, q, mapping, pin, k)
}

// execute is ExecutePinned on validated input: plan, then join + merge.
func (e *Engine) execute(ctx context.Context, q *query.Query, mapping []int, pin *Pin, k int) (report *Report, err error) {

	// Span selection: a caller whose context carries a span (a standing
	// push, a traced caller) gets the execution nested there; a plain
	// call roots a fresh query span on the engine tracer. Both are nil
	// (free) when no tracer is attached.
	span := obs.SpanFrom(ctx)
	if span != nil {
		span = span.Child("execute")
	} else {
		span = e.opts.Tracer.Root("query")
	}
	ctx = obs.WithSpan(ctx, span)
	defer func() {
		if err != nil {
			mQueryErrors.Inc()
			if span != nil {
				span.SetStr("error", err.Error())
			}
		} else {
			mQueries.Inc()
			mQuerySeconds.ObserveDuration(report.Total)
			mPhaseTopBuckets.ObserveDuration(report.TopBucketsTime)
			mPhaseJoin.ObserveDuration(report.JoinTime)
			mPhaseMerge.ObserveDuration(report.MergeTime)
			if span != nil {
				span.SetInt("epoch", report.Epoch)
				span.SetInt("k", int64(k))
				span.SetInt("results", int64(len(report.Results)))
			}
		}
		span.Finish()
	}()

	total := time.Now()
	vertexMs, req := e.pinnedInputs(q, mapping, pin, k)

	// Phase 1 (online), through the plan cache, which single-flights
	// concurrent plannings of one shape at one epoch.
	planSpan := span.Child("plan")
	planned, err := e.plan(ctx, q, mapping, vertexMs, pin, k)
	if err != nil {
		planSpan.Finish()
		return nil, err
	}
	switch planned.Outcome {
	case plancache.Hit:
		mPlanHit.Inc()
	case plancache.Revalidated:
		mPlanRevalidated.Inc()
	default:
		mPlanMiss.Inc()
	}
	if planSpan != nil {
		planSpan.SetStr("outcome", planned.Outcome.String())
		planSpan.Finish()
	}
	tb := planned.Plan

	// Join and merge over the resident store: one serial pass reading
	// the plan, or a shard scatter of its drain. The execution's own
	// score floor starts at TopBuckets' certified kthResLB. Every
	// combination carries its per-edge UBs from the plan, so the join
	// solves no bound.
	req.Plan, req.Shared = tb, join.NewSharedFloor(tb.KthResLB)
	storeBefore := pin.store.Snapshot()
	out, err := e.joinMerge(ctx, pin, req)
	if err != nil {
		return nil, err
	}
	storeAfter := pin.store.Snapshot()

	report = &Report{
		Query:           q,
		Results:         out.Results,
		TopBuckets:      tb,
		Join:            out,
		TreesBuilt:      storeAfter.TreesBuilt - storeBefore.TreesBuilt,
		TreesReused:     storeAfter.TreeHits - storeBefore.TreeHits,
		DeltaTreesBuilt: storeAfter.DeltaTreesBuilt - storeBefore.DeltaTreesBuilt,
		Epoch:           pin.Epoch(),
		PlanCacheHit:    planned.Outcome == plancache.Hit,
		PlanRevalidated: planned.Outcome == plancache.Revalidated,
		PlanSavedTime:   planned.SavedPlanTime,
		PlanWaited:      planned.Waited,
		TopBucketsTime:  planned.TopBucketsTime,
		JoinTime:        out.JoinDuration,
		MergeTime:       out.MergeDuration,
	}
	if c, ok := pin.runner.(*shard.Cluster); ok {
		report.ShardCount = c.Shards()
		report.ShardShippedBuckets = out.ShippedBuckets
		report.ShardShippedRecords = out.ShippedRecords
		report.ShardFloorFrames = out.FloorFrames
	}
	report.Total = time.Since(total)
	return report, nil
}
