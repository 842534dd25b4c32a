package join

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/topbuckets"
)

// Output is the outcome of the join + merge phases.
type Output struct {
	// Results is the final top-k, sorted by descending score. It is
	// never nil: a run that produces no results (every combination
	// pruned, or no combination to join) yields an empty slice, so
	// callers can range/encode it without a nil check.
	Results []Result
	// JoinMetrics is the join phase's per-reducer wall time (the paper's
	// Fig. 8b critical path and Fig. 10b imbalance), built from
	// Locals[i].Duration — so it is populated for every runner, local or
	// sharded.
	JoinMetrics ReduceTimes
	// Locals reports each reducer's local join statistics, indexed by
	// reducer: one entry for the local pass, one per reducer of a
	// runner's split. A reducer the split gave nothing is never run and
	// carries only its index.
	Locals []LocalStats
	// RoutedBucketEntries is the number of (bucket → reducer) references
	// a runner's split routes: Σ over buckets of the number of reducers
	// holding them. Reducers read interval slices and memoized indexes
	// in place, so references are all that is ever routed. Zero for the
	// local pass, which splits nothing.
	RoutedBucketEntries int
	// RoutedIntervalRecords is the resident-interval weight of those
	// references, Σ|b| × |reducers(b)| — the replication cost DTB
	// minimizes (distribute.Assignment.ReplicatedRecords).
	RoutedIntervalRecords float64
	// ShippedBuckets and ShippedRecords count bucket payloads a remote
	// runner shipped to shard workers that did not own them — the
	// network sibling of the replication cost DTB minimizes. Zero for
	// local execution.
	ShippedBuckets int
	ShippedRecords float64
	// FloorFrames counts floor-broadcast frames exchanged with shard
	// workers for this query (zero for local execution).
	FloorFrames int64
	// SharedFloor is the final score floor (0 when pruning was
	// disabled).
	SharedFloor float64
	// JoinDuration and MergeDuration are the wall times of the two
	// phases, each measured around exactly its own work, so their sum
	// never exceeds an enclosing window.
	JoinDuration  time.Duration
	MergeDuration time.Duration
}

// ReduceTimes is the wall time of each reducer's local join, indexed by
// reducer (zero for a reducer that had nothing to run).
type ReduceTimes []time.Duration

// MaxReduceDuration returns the wall time of the slowest reducer — the
// join phase's critical path, which the paper plots in Figure 8b.
func (rt ReduceTimes) MaxReduceDuration() time.Duration {
	var max time.Duration
	for _, d := range rt {
		if d > max {
			max = d
		}
	}
	return max
}

// Imbalance returns max/avg reducer wall time over all reducers
// (Figure 10b's metric), or 0 when no reducer did measurable work.
func (rt ReduceTimes) Imbalance() float64 {
	var sum time.Duration
	for _, d := range rt {
		sum += d
	}
	if sum == 0 {
		return 0
	}
	return float64(rt.MaxReduceDuration()) * float64(len(rt)) / float64(sum)
}

// Run executes steps (c)-(e) of Figure 5 for one request: the join
// evaluates Ω_k,S against a score floor, then one merge keeps the
// global top-k. req.Srcs[i] serves query vertex i's resident bucket
// data (see Source). Raw intervals stay resident in the store —
// reducers are handed combination indexes and prune against the floor
// req.Shared, which the caller seeds and may
// share with executions of identical result-score multisets. Without
// one Run creates a private floor at 0; under DisablePruning it uses
// none. The caller's request is not modified.
//
// With a nil runner the join is one reducer reading req.Plan by
// descending UB, in the calling goroutine: one top-k, which stops when
// the plan's bound on the combinations it has not read cannot beat the
// k-th result, so they are never built. A runner (internal/shard's
// coordinator) drains the plan, splits it over reducers of its own and
// accounts for the split;
// reducer-index ordering and the merge happen here, identically for
// every runner.
//
// req.Srcs implementations must be safe for concurrent use when a
// runner runs reducers in parallel; store.ColView (an epoch-pinned
// view) is, and is what the engine passes. A raw store.ColStore
// resolves each bucket at the epoch latest when it is asked, so under
// concurrent Append the buckets of one combination can come from
// different epochs — pin a Store.View instead whenever appends may run.
//
// A canceled ctx aborts with an error wrapping ctx.Err(): before the
// join, mid-combination inside the reducers, or between join and merge.
// So does a combination read from the plan without one edge UB per query
// edge, as RunTasks refuses one.
func Run(ctx context.Context, req *ReduceRequest, runner Runner) (*Output, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("join: canceled before join phase: %w", err)
	}
	q := req.Query
	if len(req.Srcs) != q.NumVertices {
		return nil, fmt.Errorf("join: query %s has %d vertices but %d sources",
			q.Name, q.NumVertices, len(req.Srcs))
	}
	if req.K < 1 {
		return nil, fmt.Errorf("join: k must be >= 1, got %d", req.K)
	}

	// The score floor (§3.4's early-termination payoff): every reducer
	// both consults and raises it. The caller owns it; remote runners
	// broadcast its raises to their workers and fold worker raises back
	// in.
	r := *req
	if r.Plan == nil {
		r.Plan = topbuckets.Listed(nil)
	}
	if r.Opts.DisablePruning {
		r.Shared = nil
	} else if r.Shared == nil {
		r.Shared = new(SharedFloor)
	}

	joinStart := time.Now()
	var rout *RunnerOutput
	var err error
	if runner == nil {
		rout = new(RunnerOutput)
		rout.Reducers, err = runPlan(ctx, &r)
	} else {
		rout, err = runner.RunReducers(ctx, &r)
	}
	if err != nil {
		return nil, fmt.Errorf("join: join phase: %w", err)
	}

	// Reducer-index order is established here and nowhere else: runners
	// return outputs in whatever order they gathered them, and both the
	// per-reducer statistics and the merge below read them by index.
	n := len(rout.Reducers)
	out := &Output{
		JoinMetrics:    make(ReduceTimes, n),
		Locals:         make([]LocalStats, n),
		ShippedBuckets: rout.ShippedBuckets,
		ShippedRecords: rout.ShippedRecords,
		FloorFrames:    rout.FloorFrames,
	}
	lists := make([][]Result, n)
	for _, ro := range rout.Reducers {
		out.Locals[ro.Reducer] = ro.Stats
		out.JoinMetrics[ro.Reducer] = ro.Stats.Duration
		lists[ro.Reducer] = ro.Results
	}
	for _, l := range out.Locals {
		out.RoutedBucketEntries += l.BucketRefsRouted
		out.RoutedIntervalRecords += l.RoutedIntervals
	}
	if r.Shared != nil {
		out.SharedFloor = r.Shared.Load()
	}
	out.JoinDuration = time.Since(joinStart)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("join: canceled between join and merge phases: %w", err)
	}

	// Merge phase (Figure 5e): the local lists combine into the global
	// top-k.
	mergeStart := time.Now()
	out.Results = merge(lists, r.K)
	out.MergeDuration = time.Since(mergeStart)
	return out, nil
}

// merge combines per-reducer top-k lists, taken in reducer-index order,
// into the global top-k. The result is never nil.
func merge(lists [][]Result, k int) []Result {
	topk := NewTopK(k)
	for _, list := range lists {
		for _, r := range list {
			topk.Add(r)
		}
	}
	if topk.Len() == 0 {
		return []Result{}
	}
	return topk.Results()
}

// Exhaustive computes the exact top-k by enumerating the full cross
// product in memory — the correctness oracle for tests and the
// score-distribution study of Figure 7. It is exponential in the number
// of collections; use only at test scale.
func Exhaustive(q *query.Query, cols []*interval.Collection, k int) ([]Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(cols) != q.NumVertices {
		return nil, fmt.Errorf("join: %d collections for %d vertices", len(cols), q.NumVertices)
	}
	topk := NewTopK(k)
	tuple := make([]interval.Interval, q.NumVertices)
	partials := make([]float64, len(q.Edges))
	var rec func(v int)
	rec = func(v int) {
		if v == q.NumVertices {
			// q.Score, without its allocation; a tuple scoring below a
			// full collector's threshold is not copied.
			for i, e := range q.Edges {
				partials[i] = e.Pred.Score(tuple[e.From], tuple[e.To])
			}
			if score := q.Agg.Aggregate(partials); score >= topk.Threshold() {
				topk.Add(Result{Tuple: append([]interval.Interval(nil), tuple...), Score: score})
			}
			return
		}
		for _, iv := range cols[v].Items {
			tuple[v] = iv
			rec(v + 1)
		}
	}
	rec(0)
	return topk.Results(), nil
}

// ScoreMultisetEqual reports whether two result lists carry the same
// multiset of scores (the comparable notion of top-k equality under
// ties), within epsilon.
func ScoreMultisetEqual(a, b []Result, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]float64, len(a))
	bs := make([]float64, len(b))
	for i := range a {
		as[i], bs[i] = a[i].Score, b[i].Score
	}
	sort.Float64s(as)
	sort.Float64s(bs)
	for i := range as {
		if diff := as[i] - bs[i]; diff > eps || diff < -eps {
			return false
		}
	}
	return true
}
