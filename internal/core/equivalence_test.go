package core

// Randomized equivalence harness: the engine's full serving path —
// statistics, TopBuckets pruning, DTB distribution, the epoch-pinned
// store views, R-tree probe boxes, shared-floor pruning, merge — is
// checked against the nested-loop oracle join.Exhaustive
// over randomized datasets and query shapes, including after streaming
// appends. Any unsound bound or stale epoch view diverges from the
// oracle here before it can hide behind a hand-picked query.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

// cloneCols deep-copies collections so engines that grow their dataset
// in place (Append) can run side by side over identical data.
func cloneCols(cols []*interval.Collection) []*interval.Collection {
	out := make([]*interval.Collection, len(cols))
	for i, c := range cols {
		out[i] = &interval.Collection{Name: c.Name, Items: slices.Clone(c.Items)}
	}
	return out
}

// randomCollection draws sizes, spans and lengths from the rng so the
// harness covers dense, sparse, short- and long-interval shapes.
func randomCollection(rng *rand.Rand, name string, idBase int64) *interval.Collection {
	n := 25 + rng.Intn(35)
	span := int64(500 + rng.Intn(4000))
	maxLen := int64(10 + rng.Intn(150))
	c := &interval.Collection{Name: name}
	for j := 0; j < n; j++ {
		s := rng.Int63n(span)
		c.Add(interval.Interval{ID: idBase + int64(j), Start: s, End: s + 1 + rng.Int63n(maxLen)})
	}
	return c
}

// randomQuery builds a random weakly connected chain or star over n
// vertices with predicates drawn from the catalog.
func randomQuery(rng *rand.Rand, n int, avg float64) (*query.Query, error) {
	params := []scoring.PairParams{scoring.P1, scoring.P2, scoring.P3}[rng.Intn(3)]
	preds := []func() *scoring.Predicate{
		func() *scoring.Predicate { return scoring.Before(params) },
		func() *scoring.Predicate { return scoring.Meets(params) },
		func() *scoring.Predicate { return scoring.Overlaps(params) },
		func() *scoring.Predicate { return scoring.Equals(params) },
		func() *scoring.Predicate { return scoring.Starts(params) },
		func() *scoring.Predicate { return scoring.FinishedBy(params) },
		func() *scoring.Predicate { return scoring.Contains(params) },
		func() *scoring.Predicate { return scoring.JustBefore(params, avg) },
		func() *scoring.Predicate { return scoring.ShiftMeets(params, avg) },
		func() *scoring.Predicate { return scoring.Sparks(params) },
	}
	var edges []query.Edge
	star := rng.Intn(2) == 0
	for v := 1; v < n; v++ {
		from, to := v-1, v
		if star {
			from = 0
		}
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		edges = append(edges, query.Edge{From: from, To: to, Pred: preds[rng.Intn(len(preds))]()})
	}
	var agg scoring.Aggregator = scoring.Avg{}
	if rng.Intn(4) == 0 {
		agg = scoring.Min{} // exercises the non-invertible-aggregator fallback
	}
	return query.New(fmt.Sprintf("rand-n%d", n), n, edges, agg)
}

// appendBatch grows one collection with rng-drawn intervals, routing
// the identical batch through every engine's streaming path (each
// engine owns its own copy of the dataset).
func appendBatch(t *testing.T, engines []*Engine, nCols int, rng *rand.Rand, idBase int64) {
	t.Helper()
	col := rng.Intn(nCols)
	span := int64(500 + rng.Intn(4500)) // may exceed the original span: exercises granule clamping
	batch := make([]interval.Interval, 5+rng.Intn(12))
	for i := range batch {
		s := rng.Int63n(span)
		batch[i] = interval.Interval{ID: idBase + int64(i), Start: s, End: s + 1 + rng.Int63n(120)}
	}
	for _, e := range engines {
		if _, err := e.Append(col, batch); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineMatchesNaiveRandomized(t *testing.T) {
	seeds := 14
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + seed*7919)))
			n := 2 + rng.Intn(2)
			cols := make([]*interval.Collection, n)
			for i := range cols {
				cols[i] = randomCollection(rng, fmt.Sprintf("C%d", i), int64(i)*1_000_000)
			}
			q, err := randomQuery(rng, n, interval.AvgLength(cols...))
			if err != nil {
				t.Fatal(err)
			}
			k := 1 + rng.Intn(15)
			e, err := NewEngine(cols, Options{
				Granules: 3 + rng.Intn(8),
				K:        k,
				Reducers: 2 + rng.Intn(5),
			})
			if err != nil {
				t.Fatal(err)
			}
			vertexCols := cols[:n]
			mapping := make([]int, n)
			for v := range mapping {
				mapping[v] = v
			}

			// The same dataset and options served by shard clusters of
			// every size: the distributed join must be indistinguishable
			// from the 1-process engine, stage by stage, append by append.
			shardNs := []int{2, 3, 5}
			shardEngines := make([]*Engine, len(shardNs))
			for i, nsh := range shardNs {
				opts := e.Options()
				opts.Shards = nsh
				se, err := NewEngine(cloneCols(cols), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer se.Close()
				shardEngines[i] = se
			}
			allEngines := append([]*Engine{e}, shardEngines...)

			check := func(stage string, wantEpoch int64) {
				report, err := e.Execute(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: engine: %v", stage, err)
				}
				want, err := join.Exhaustive(q, vertexCols, k)
				if err != nil {
					t.Fatalf("%s: naive: %v", stage, err)
				}
				if !join.ScoreMultisetEqual(report.Results, want, 1e-9) {
					t.Fatalf("%s: engine top-%d diverged from the naive oracle on %s\nengine: %v\nnaive:  %v",
						stage, k, q.Name, scoresOf(report.Results), scoresOf(want))
				}
				if report.Epoch != wantEpoch {
					t.Fatalf("%s: pinned epoch %d, want %d", stage, report.Epoch, wantEpoch)
				}
				// Cached-plan vs cold-plan equivalence: a fresh engine over
				// the current data, with the plan cache disabled, must
				// return the same top-k the (possibly hit or revalidated)
				// cached plan produced.
				coldOpts := e.Options()
				coldOpts.PlanCache = plancache.Options{Disabled: true}
				coldEngine, err := NewEngine(cols, coldOpts)
				if err != nil {
					t.Fatalf("%s: cold engine: %v", stage, err)
				}
				coldReport, err := coldEngine.Execute(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: cold engine: %v", stage, err)
				}
				if !join.ScoreMultisetEqual(report.Results, coldReport.Results, 1e-9) {
					t.Fatalf("%s: cached-plan top-%d diverged from a cold plan on %s\ncached: %v\ncold:   %v",
						stage, k, q.Name, scoresOf(report.Results), scoresOf(coldReport.Results))
				}
				// Memberships, not just scores: every returned tuple must
				// actually score what it claims under the query.
				for _, r := range report.Results {
					if got := q.Score(r.Tuple); got-r.Score > 1e-9 || r.Score-got > 1e-9 {
						t.Fatalf("%s: result tuple %v reports score %g, rescores to %g", stage, r.Tuple, r.Score, got)
					}
				}
				// N-shard equivalence: every cluster size returns the
				// byte-identical result list — same tuples, same scores,
				// same order — at the same pinned epoch: that of the
				// cluster's DTB assignment run in one process. (The
				// 1-process engine's one serial pass agrees in scores,
				// checked against the oracle above; under ties its tuples
				// may differ.)
				var inProcess []join.Result
				for i, se := range shardEngines {
					sreport, err := se.Execute(context.Background(), q)
					if err != nil {
						t.Fatalf("%s: %d-shard engine: %v", stage, shardNs[i], err)
					}
					if sreport.ShardCount != shardNs[i] {
						t.Fatalf("%s: report says %d shards, want %d", stage, sreport.ShardCount, shardNs[i])
					}
					if sreport.Epoch != wantEpoch {
						t.Fatalf("%s: %d-shard engine pinned epoch %d, want %d", stage, shardNs[i], sreport.Epoch, wantEpoch)
					}
					if !join.ScoreMultisetEqual(sreport.Results, want, 1e-9) {
						t.Fatalf("%s: %d-shard top-%d diverged from the naive oracle on %s", stage, shardNs[i], k, q.Name)
					}
					if inProcess == nil {
						ref, _ := runAssigned(t, se, sreport, mapping, k, e.Options().Reducers)
						inProcess = ref.Results
					}
					if !reflect.DeepEqual(sreport.Results, inProcess) {
						for j := range inProcess {
							t.Logf("local  %d: %v %v", j, inProcess[j].Score, inProcess[j].Tuple)
						}
						for j := range sreport.Results {
							t.Logf("shard  %d: %v %v", j, sreport.Results[j].Score, sreport.Results[j].Tuple)
						}
						t.Fatalf("%s: %d-shard top-%d is not identical to its assignment run in one process on %s",
							stage, shardNs[i], k, q.Name)
					}
				}
			}

			check("initial", 0)
			// A sequence of appends must keep the engine exact: the
			// collections grow in place, so the oracle re-enumerates the
			// post-append cross product each time. Every shard engine
			// receives the identical batches (its replicas grow through
			// the coordinator's lockstep forwarding).
			for b := int64(1); b <= 3; b++ {
				appendBatch(t, allEngines, n, rng, 9_000_000+b*1000)
				check(fmt.Sprintf("after append %d", b), b)
			}
			// No pinned view may outlive its execution — on the
			// coordinator stores or on any worker replica.
			for i, se := range allEngines {
				if vs := se.Store().ViewStats(); vs.Live != 0 {
					t.Fatalf("engine %d holds %d live views after the run", i, vs.Live)
				}
				for wi, w := range se.ShardWorkers() {
					w.Quiesce()
					if vs := w.Store().ViewStats(); vs.Live != 0 {
						t.Fatalf("engine %d worker %d holds %d live views", i, wi, vs.Live)
					}
				}
			}
		})
	}
}

func scoresOf(rs []join.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	return out
}
