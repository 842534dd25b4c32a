package join

import (
	"context"
	"fmt"
	"sync"

	"tkij/internal/query"
	"tkij/internal/topbuckets"
)

// ReduceRequest is one query's reduce workload: the query, its
// per-vertex sources, and the plan of the selected combinations, each
// carrying the edge UBs its plan solved. Run without a runner reads the plan as one
// reducer in the calling goroutine, building only the combinations it
// reads; a remote runner (internal/shard's coordinator) drains it,
// splits it over reducers of its own and scatters those to workers.
type ReduceRequest struct {
	Query *query.Query
	// Mapping maps query vertices to collections (vertex v reads
	// collection Mapping[v]); nil means the identity. The local pass
	// never consults it — Srcs already embody the mapping — but remote
	// runners need it to resolve which shard owns a vertex bucket.
	Mapping []int
	// Srcs serves vertex v's bucket data, pinned at the query's epoch.
	Srcs []Source
	// Plan is Ω_k,S by descending UB (topbuckets.Listed wraps a fixed
	// list).
	Plan *topbuckets.Plan
	// Reducers is how many reducers a remote runner splits the plan over
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
}

// ReducerTask is one reducer's share of a split request: the reducer
// index and the indexes (into the combination list RunTasks is given) of
// the combinations assigned to it, by descending UB (see DescendingUB).
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

// RunTasks is the executor of a split request's reducers, run by the
// shard worker and by an in-process distribute.Assignment: task.Combos
// index combos (nothing is copied per reducer). A lone task runs in the calling goroutine; several run on a
// goroutine each. Every task evaluates its combinations against
// req.Srcs, consulting and raising req.Shared throughout. Outputs are
// returned in task order.
//
// req must carry Query, Srcs, K, Opts and Shared; Plan, Mapping and
// Reducers are not consulted. The caller vouches for the inputs: a
// valid query, K >= 1, one source per vertex, task indexes within combos
// (the wire decoder checks these). Each task's list must be in
// descending-UB order: a reducer stops at the first combination its
// threshold dominates, which is only sound on a sorted list, so an
// unsorted one is an error. So is a task combination without one edge
// UB per query edge (its plan's, which the shard wire carries), which a
// reducer would index out of range on its own goroutine.
//
// A cancelable ctx is polled mid-combination: once it is done every
// reducer abandons its remaining work and RunTasks returns ctx.Err()
// instead of truncated outputs.
func RunTasks(ctx context.Context, req *ReduceRequest, combos []topbuckets.Combo, tasks []ReducerTask) ([]ReducerOutput, error) {
	for _, t := range tasks {
		if !DescendingUB(combos, t.Combos) {
			return nil, fmt.Errorf("join: reducer %d's combinations are not in descending-UB order", t.Reducer)
		}
		for _, ci := range t.Combos {
			if n := len(combos[ci].EdgeUB); n != len(req.Query.Edges) {
				return nil, fmt.Errorf("join: combination %d carries %d edge UBs, query %s has %d edges", ci, n, req.Query.Name, len(req.Query.Edges))
			}
		}
	}
	plan := newPlan(req.Query)
	outs := make([]ReducerOutput, len(tasks))
	run := func(i int) {
		t := tasks[i]
		lj := newLocalJoiner(ctx.Done(), plan, req)
		lj.combos = combos
		outs[i] = lj.output(t.Reducer, t.Combos)
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

// runPlan is the local pass: one reducer reading req.Plan in the calling
// goroutine, which builds no combination the pass does not read.
func runPlan(ctx context.Context, req *ReduceRequest) ([]ReducerOutput, error) {
	lj := newLocalJoiner(ctx.Done(), newPlan(req.Query), req)
	lj.stream = req.Plan
	out := lj.output(0, nil)
	if lj.err != nil {
		return nil, lj.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return []ReducerOutput{out}, nil
}
