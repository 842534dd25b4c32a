package join

import (
	"context"
	"fmt"
	"sync"

	"tkij/internal/distribute"
	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// ReduceRequest is one query's reduce workload: the query, its
// per-vertex sources and granulation grids, the selected combinations,
// and the workload assignment mapping them onto reducers. The request
// is runner-agnostic — the local runner evaluates every reducer
// in-process; the shard coordinator scatters them to remote workers
// over the wire.
type ReduceRequest struct {
	Query *query.Query
	// Mapping maps query vertices to collections (vertex v reads
	// collection Mapping[v]); nil means the identity. The local runner
	// never consults it — Srcs already embody the mapping — but remote
	// runners need it to resolve which shard owns a vertex bucket.
	Mapping []int
	// Srcs serves vertex v's bucket data, pinned at the query's epoch.
	Srcs []Source
	// Grans is vertex v's granulation + observed endpoint extent.
	Grans []stats.Grid
	// Combos is Ω_k,S; Assign.ReducerCombos indexes into it.
	Combos []topbuckets.Combo
	Assign *distribute.Assignment
	K      int
	Opts   LocalOptions
	// Shared is the query's cross-reducer score floor, owned by the
	// caller and seeded with a certified lower bound on the k-th result
	// score (TopBuckets' kthResLB); nil lets Run create a private one at
	// 0, and Run drops it under DisablePruning. Every reducer — local or
	// remote — consults and raises it (remote runners mirror it over
	// their floor-broadcast channel).
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

// Tasks lists the assignment's reducers that received at least one
// combination, ascending. A reducer with nothing assigned is never run
// by any runner; its Output.Locals entry carries only its index.
func (req *ReduceRequest) Tasks() []ReducerTask {
	tasks := make([]ReducerTask, 0, len(req.Assign.ReducerCombos))
	for rj, idxs := range req.Assign.ReducerCombos {
		if len(idxs) > 0 {
			tasks = append(tasks, ReducerTask{Reducer: rj, Combos: idxs})
		}
	}
	return tasks
}

// ReducerOutput is one reducer's complete output.
type ReducerOutput struct {
	Reducer int
	Results []Result
	Stats   LocalStats
}

// RunnerOutput is a Runner's gathered result: every executed reducer's
// output (in any order — Run places them by reducer index) plus
// runner-specific accounting.
type RunnerOutput struct {
	Reducers []ReducerOutput
	// ShippedBuckets / ShippedRecords count bucket payloads a remote
	// runner had to ship to workers that did not own them (zero for the
	// local runner, where every bucket is resident).
	ShippedBuckets int
	ShippedRecords float64
	// FloorFrames counts floor-broadcast frames exchanged with workers
	// for this query (zero for the local runner, whose reducers share
	// the floor through memory).
	FloorFrames int64
}

// Runner executes a query's reduce workload. The local implementation
// runs every reducer in-process; internal/shard's coordinator scatters
// reducers to shard workers, which run them through the same RunTasks.
// Run's accounting and merge are runner-independent, so any Runner that
// returns each reducer's exact local top-k yields byte-identical final
// results.
type Runner interface {
	RunReducers(ctx context.Context, req *ReduceRequest) (*RunnerOutput, error)
}

// localRunner is the default Runner: every task of the assignment on
// this process.
type localRunner struct{}

func (localRunner) RunReducers(ctx context.Context, req *ReduceRequest) (*RunnerOutput, error) {
	outs, err := RunTasks(ctx, req, req.Tasks())
	if err != nil {
		return nil, err
	}
	return &RunnerOutput{Reducers: outs}, nil
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

// RunTasks is the reducer executor — the one place a local joiner is
// built and a reducer's combination list is run, shared by the local
// runner and the shard worker. Each task gets its own goroutine and
// evaluates its combinations against req.Srcs in place (task.Combos
// index req.Combos; nothing is copied per reducer), consulting and
// raising req.Shared throughout. Outputs are returned in task order.
//
// req must carry Query, Srcs, Grans, Combos, K, Opts and Shared; Assign
// and Mapping are not consulted. The caller vouches for the inputs: a
// valid query, K >= 1, one source per vertex, task indexes within
// req.Combos (Run and the wire decoder check these). Each task's list
// must be in descending-UB order, as distribute.Assign leaves it: a
// reducer stops at the first combination its threshold dominates, which
// is only sound on a sorted list, so an unsorted one is an error.
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
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t ReducerTask) {
			defer wg.Done()
			lj := newLocalJoiner(ctx.Done(), plan, req)
			results := lj.run(t.Combos)
			lj.stats.Reducer = t.Reducer
			outs[i] = ReducerOutput{Reducer: t.Reducer, Results: results, Stats: lj.stats}
		}(i, t)
	}
	wg.Wait()
	// A reducer only stops early because ctx is done, so checking ctx
	// once here rejects every truncated output.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}
