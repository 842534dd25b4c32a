package join

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// ReduceRequest is one query's reduce workload: the query, its
// per-vertex sources and granulation grids, and the selected
// combinations. Run without a runner evaluates them as one reducer in
// the calling goroutine; a remote runner (internal/shard's coordinator)
// splits them over reducers of its own and scatters those to workers.
type ReduceRequest struct {
	Query *query.Query
	// Mapping maps query vertices to collections (vertex v reads
	// collection Mapping[v]); nil means the identity. The local pass
	// never consults it — Srcs already embody the mapping — but remote
	// runners need it to resolve which shard owns a vertex bucket.
	Mapping []int
	// Srcs serves vertex v's bucket data, pinned at the query's epoch.
	Srcs []Source
	// Grans is vertex v's granulation + observed endpoint extent.
	Grans []stats.Grid
	// Combos is Ω_k,S; ReducerTask.Combos indexes into it.
	Combos []topbuckets.Combo
	// Reducers is how many reducers a remote runner splits Combos over
	// (0: the runner's default). The local pass ignores it.
	Reducers int
	K        int
	Opts     LocalOptions
	// Shared is the query's score floor, owned by the caller and seeded
	// with a certified lower bound on the k-th result score (TopBuckets'
	// kthResLB); nil lets Run create a private one at 0, and Run drops it
	// under DisablePruning. Every reducer — local or remote — consults
	// and raises it (remote runners mirror it over their floor-broadcast
	// channel).
	Shared *SharedFloor
	// Bounds memoizes the per-edge combination bounds. The engine passes
	// the cached plan's memo (a standing probe its subscription's), so a
	// warm plan solves none; nil gets a memo of the request's own from
	// RunTasks. It does not travel to shard workers, which therefore
	// memoize per request.
	Bounds *solver.PairMemo
}

// ReducerTask is one reducer's share of a request: the reducer index
// and the indexes (into ReduceRequest.Combos) of the combinations
// assigned to it, by descending UB (see DescendingUB).
type ReducerTask struct {
	Reducer int
	Combos  []int
}

// ReducerOutput is one reducer's complete output.
type ReducerOutput struct {
	Reducer int
	Results []Result
	Stats   LocalStats
}

// RunnerOutput is a Runner's gathered result: one output for each
// reducer 0..n-1 of its split (in any order — Run places them by
// reducer index), with the bucket references the split routed to it in
// its LocalStats, plus the runner's wire accounting.
type RunnerOutput struct {
	Reducers []ReducerOutput
	// ShippedBuckets, ShippedRecords and FloorFrames are a remote
	// runner's wire accounting (Output has their meaning).
	ShippedBuckets int
	ShippedRecords float64
	FloorFrames    int64
}

// Runner executes a query's reduce workload on reducers of its own
// split: internal/shard's coordinator scatters them to shard workers,
// which run them through RunTasks. Run's merge is runner-independent,
// so any Runner that returns each reducer's exact local top-k yields
// the exact global top-k.
type Runner interface {
	RunReducers(ctx context.Context, req *ReduceRequest) (*RunnerOutput, error)
}

// DescendingUB reports whether idxs lists combinations (indexes into
// combos) by non-increasing UB — the order the reducers' early
// termination relies on.
func DescendingUB(combos []topbuckets.Combo, idxs []int) bool {
	for i := 1; i < len(idxs); i++ {
		if !(combos[idxs[i-1]].UB >= combos[idxs[i]].UB) {
			return false
		}
	}
	return true
}

// serialTask is the local pass's one task: every combination by
// descending UB (Ω_k,S arrives so; other lists are sorted stably).
func serialTask(combos []topbuckets.Combo) ReducerTask {
	idxs := make([]int, len(combos))
	for i := range idxs {
		idxs[i] = i
	}
	if !DescendingUB(combos, idxs) {
		slices.SortStableFunc(idxs, func(a, b int) int { return cmp.Compare(combos[b].UB, combos[a].UB) })
	}
	return ReducerTask{Combos: idxs}
}

// RunTasks is the reducer executor — the one place a local joiner is
// built and a reducer's combination list is run, shared by the local
// pass and the shard worker. A lone task runs in the calling goroutine;
// several run on a goroutine each. Every task evaluates its
// combinations against req.Srcs in place (task.Combos index req.Combos;
// nothing is copied per reducer), consulting and raising req.Shared
// throughout. Outputs are returned in task order.
//
// req must carry Query, Srcs, Grans, Combos, K, Opts and Shared;
// Mapping and Reducers are not consulted. The caller vouches for the
// inputs: a valid query, K >= 1, one source per vertex, task indexes
// within req.Combos (Run and the wire decoder check these). Each task's
// list must be in descending-UB order: a reducer stops at the first
// combination its threshold dominates, which is only sound on a sorted
// list, so an unsorted one is an error.
//
// A cancelable ctx is polled mid-combination: once it is done every
// reducer abandons its remaining work and RunTasks returns ctx.Err()
// instead of truncated outputs.
func RunTasks(ctx context.Context, req *ReduceRequest, tasks []ReducerTask) ([]ReducerOutput, error) {
	for _, t := range tasks {
		if !DescendingUB(req.Combos, t.Combos) {
			return nil, fmt.Errorf("join: reducer %d's combinations are not in descending-UB order", t.Reducer)
		}
	}
	if req.Bounds == nil {
		r := *req
		r.Bounds = solver.NewPairMemo()
		req = &r
	}
	plan := newPlan(req.Query)
	outs := make([]ReducerOutput, len(tasks))
	run := func(i int) {
		t := tasks[i]
		lj := newLocalJoiner(ctx.Done(), plan, req)
		results := lj.run(t.Combos)
		lj.stats.Reducer = t.Reducer
		outs[i] = ReducerOutput{Reducer: t.Reducer, Results: results, Stats: lj.stats}
	}
	if len(tasks) == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for i := range tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(i)
			}()
		}
		wg.Wait()
	}
	// A reducer only stops early because ctx is done, so checking ctx
	// once here rejects every truncated output.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}
