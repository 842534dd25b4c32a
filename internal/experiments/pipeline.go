package experiments

import (
	"context"
	"time"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// setup is a figure driver's configuration of the paper's phases. The
// engine runs a local query as one reducer; the figures simulate the
// paper's r reducers, so the drivers run the phases themselves.
type setup struct {
	g, k      int
	strategy  topbuckets.Strategy
	maxCombos float64 // TopBuckets' combination budget (0: its default)
	alg       distribute.Algorithm
	reducers  int
	local     join.LocalOptions
}

// run is one query through the pipeline: each phase's outcome and wall
// time (join and merge times are in join.Output).
type run struct {
	matrices                              []*stats.Matrix
	tb                                    *topbuckets.Result
	join                                  *join.Output
	topBucketsTime, distributeTime, total time.Duration
}

// execute runs q over cols, vertex v reading collection mapping[v] (nil:
// the identity), through Figure 5: statistics and the bucket store
// (offline, untimed, as in §4), TopBuckets, the s.alg assignment over
// s.reducers reducers, and the join — each reducer on its own goroutine,
// against one floor seeded at kthResLB — and merge.
func execute(ctx context.Context, cols []*interval.Collection, q *query.Query, mapping []int, s setup) (*run, error) {
	ms, _, err := stats.Collect(cols, s.g, mapreduce.Config{Reducers: len(cols)})
	if err != nil {
		return nil, err
	}
	st, err := store.Build(cols, ms)
	if err != nil {
		return nil, err
	}
	view := st.View()
	defer view.Release()
	if mapping == nil {
		mapping = make([]int, q.NumVertices)
		for v := range mapping {
			mapping[v] = v
		}
	}
	vertexMs := make([]*stats.Matrix, q.NumVertices)
	req := &join.ReduceRequest{Query: q, Mapping: mapping, Srcs: make([]join.Source, q.NumVertices), K: s.k, Opts: s.local}
	for v, ci := range mapping {
		vertexMs[v], req.Srcs[v] = ms[ci].WithCol(v), view.Col(ci)
	}

	r := &run{matrices: ms}
	start := time.Now()
	if r.tb, err = topbuckets.Run(q, vertexMs, s.k, topbuckets.Options{Strategy: s.strategy, MaxCombos: s.maxCombos}); err != nil {
		return nil, err
	}
	r.topBucketsTime = time.Since(start)
	assign, err := distribute.Assign(s.alg, r.tb.Selected, s.reducers)
	if err != nil {
		return nil, err
	}
	r.distributeTime = time.Since(start) - r.topBucketsTime
	req.Plan, req.Shared = topbuckets.Listed(r.tb.Selected), join.NewSharedFloor(r.tb.KthResLB)
	if r.join, err = join.Run(ctx, req, assign); err != nil {
		return nil, err
	}
	r.total = time.Since(start)
	return r, nil
}
