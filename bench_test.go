package tkij

// One benchmark per paper table/figure (§4), wrapping the drivers in
// internal/experiments at a reduced scale so the full -bench=. sweep
// completes in minutes on one machine. cmd/tkij-bench runs the same
// drivers at full scale and prints the reproduced tables.

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"tkij/internal/distribute"
	"tkij/internal/experiments"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/mapreduce"
	"tkij/internal/scoring"
	"tkij/internal/solver"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// benchScale keeps each figure benchmark in the seconds range.
const benchScale = 0.05

func runExperiment(b *testing.B, fn func(context.Context, experiments.Config) ([]*experiments.Table, error)) {
	b.Helper()
	cfg := experiments.Config{Scale: benchScale, Reducers: 8}
	for i := 0; i < b.N; i++ {
		tables, err := fn(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkStatsCollection regenerates the §4 statistics-collection
// timing note (time vs |Ci|).
func BenchmarkStatsCollection(b *testing.B) {
	runExperiment(b, experiments.StatsCollection)
}

// BenchmarkFig7ScoreDistribution regenerates Figure 7 (score
// distribution of the top results per predicate).
func BenchmarkFig7ScoreDistribution(b *testing.B) {
	runExperiment(b, experiments.Fig7ScoreDistribution)
}

// BenchmarkFig8Workload regenerates Figure 8a/b/c (LPT vs DTB: join
// time, max reducer time, min k-th score).
func BenchmarkFig8Workload(b *testing.B) {
	runExperiment(b, experiments.Fig8Workload)
}

// BenchmarkFig9Strategies regenerates Figure 9 (brute-force vs two-phase
// vs loose per-phase times on star queries, n = 3..5).
func BenchmarkFig9Strategies(b *testing.B) {
	runExperiment(b, experiments.Fig9Strategies)
}

// BenchmarkFig10Granules regenerates Figure 10a/b/c (effect of the
// granule count on time, imbalance, and pruning).
func BenchmarkFig10Granules(b *testing.B) {
	runExperiment(b, experiments.Fig10Granules)
}

// BenchmarkFig11Scalability regenerates Figure 11a/b/c (TKIJ vs
// All-Matrix and RCCIS as |Ci| grows).
func BenchmarkFig11Scalability(b *testing.B) {
	runExperiment(b, experiments.Fig11Scalability)
}

// BenchmarkEffectOfKSynthetic regenerates §4.2.6 (running time vs k on
// synthetic data).
func BenchmarkEffectOfKSynthetic(b *testing.B) {
	runExperiment(b, experiments.EffectOfKSynthetic)
}

// BenchmarkFig12DataDistribution regenerates Figure 12 (traffic data
// start/length histograms).
func BenchmarkFig12DataDistribution(b *testing.B) {
	runExperiment(b, experiments.Fig12DataDistribution)
}

// BenchmarkFig13TrafficScalability regenerates Figure 13 (traffic-data
// scalability of the seven queries).
func BenchmarkFig13TrafficScalability(b *testing.B) {
	runExperiment(b, experiments.Fig13TrafficScalability)
}

// BenchmarkFig14TrafficEffectOfK regenerates Figure 14 (traffic-data
// running time vs k).
func BenchmarkFig14TrafficEffectOfK(b *testing.B) {
	runExperiment(b, experiments.Fig14TrafficEffectOfK)
}

// BenchmarkAblations covers the DESIGN.md ablations: R-tree probes vs
// scans (BenchmarkAblationLocalIndex in spirit), pruning on/off, and
// round-robin distribution.
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, experiments.Ablations)
}

// --- serving-path benchmarks on one warm engine ---

// servingEngine builds a 3-collection engine and primes its statistics,
// bucket store, and (via one cold execution) the memoized R-trees.
func servingEngine(b *testing.B, q *Query) *Engine {
	b.Helper()
	cols := []*interval.Collection{
		Uniform("C1", 20000, 1), Uniform("C2", 20000, 2), Uniform("C3", 20000, 3),
	}
	engine, err := NewEngine(cols, Options{Granules: 20, K: 100, Reducers: 8})
	if err != nil {
		b.Fatal(err)
	}
	cold, err := engine.Execute(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("cold run: join %v, total %v, %d trees built", cold.JoinTime, cold.Total, cold.TreesBuilt)
	return engine
}

// BenchmarkRepeatedQuery measures the warm serving path: after one cold
// execution primes the store, every further execution of the same query
// must rebuild zero R-trees — the reducers read the resident buckets
// and their memoized trees in place. Compare ns/op here with the
// cold-run join time logged at startup.
func BenchmarkRepeatedQuery(b *testing.B) {
	q, err := QueryByName("Qo,m", QueryEnv{Params: P1})
	if err != nil {
		b.Fatal(err)
	}
	engine := servingEngine(b, q)
	b.ResetTimer()
	var rebuilt int64
	for i := 0; i < b.N; i++ {
		report, err := engine.Execute(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		rebuilt += report.TreesBuilt
	}
	b.StopTimer()
	if rebuilt != 0 {
		b.Fatalf("warm executions rebuilt %d R-trees", rebuilt)
	}
}

// BenchmarkConcurrentQueries measures concurrent serving throughput:
// many goroutines executing Table-1 queries against one shared engine,
// store, and cross-reducer thresholds.
func BenchmarkConcurrentQueries(b *testing.B) {
	env := QueryEnv{Params: P1}
	names := []string{"Qb,b", "Qo,m", "Qs,m"}
	queries := make([]*Query, len(names))
	for i, n := range names {
		q, err := QueryByName(n, env)
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = q
	}
	engine := servingEngine(b, queries[0])
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := engine.Execute(context.Background(), queries[i%len(queries)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkServerQueries measures throughput through the admission
// layer under a burst: 8 submitting goroutines per GOMAXPROCS (16 on
// two cores) repeat three warm shapes against one Server, whose default
// in-flight cap lets GOMAXPROCS of them execute at once while the rest
// queue. Compare with BenchmarkConcurrentQueries, the same workload on
// direct Execute calls. p99-ms is the 99th percentile of one Submit's
// latency, queueing included.
func BenchmarkServerQueries(b *testing.B) {
	env := QueryEnv{Params: P1}
	names := []string{"Qb,b", "Qo,m", "Qs,m"}
	queries := make([]*Query, len(names))
	for i, n := range names {
		q, err := QueryByName(n, env)
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = q
	}
	engine := servingEngine(b, queries[0])
	server := NewServer(engine, ServerOptions{})
	defer server.Close()
	var mu sync.Mutex
	var latencies []time.Duration
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var mine []time.Duration
		for i := 0; pb.Next(); i++ {
			start := time.Now()
			if _, err := server.Submit(context.Background(), queries[i%len(queries)], nil); err != nil {
				b.Error(err)
				return
			}
			mine = append(mine, time.Since(start))
		}
		mu.Lock()
		latencies = append(latencies, mine...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(latencies) > 0 {
		slices.Sort(latencies)
		b.ReportMetric(float64(latencies[len(latencies)*99/100].Microseconds())/1e3, "p99-ms")
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkPredicateScore measures one scored-predicate evaluation.
func BenchmarkPredicateScore(b *testing.B) {
	p := Overlaps(P1)
	x := Interval{Start: 10, End: 60}
	y := Interval{Start: 40, End: 90}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Score(x, y)
	}
}

// BenchmarkSolverPairBounds measures one loose-strategy unit of work:
// tight bounds for a predicate over a bucket pair. A separable predicate
// (s-starts) is its enclosure alone; one whose terms share an endpoint
// (s-overlaps) still searches its maximum.
func BenchmarkSolverPairBounds(b *testing.B) {
	x := solver.VertexBox{StartLo: 0, StartHi: 2500, EndLo: 0, EndHi: 2600}
	y := solver.VertexBox{StartLo: 2500, StartHi: 5000, EndLo: 2500, EndHi: 5100}
	for _, bc := range []struct {
		name string
		pred *scoring.Predicate
	}{
		{"separable", scoring.Starts(scoring.P1)},
		{"shared", scoring.Overlaps(scoring.P1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solver.PairBounds(bc.pred, x, y)
			}
		})
	}
}

// BenchmarkPlanMiss measures what a query whose plan is not cached pays
// before any join work: as "plan", a Plan built and its first
// combination read — all a local query reads at the score ceiling; as
// "topbuckets", the full drain of Ω_k,S (TopBuckets' loose strategy),
// which a sharded engine's coordinator and the figure drivers pay; and,
// as "dtb", what the coordinator adds to every query: DTB over the
// selection at 8 reducers. 3 × 15k uniform intervals, g = 20, k = 100,
// for each query shape of the cold_plan workload.
func BenchmarkPlanMiss(b *testing.B) {
	cols := []*interval.Collection{
		Uniform("C1", 15000, 1), Uniform("C2", 15000, 2), Uniform("C3", 15000, 3),
	}
	ms, _, err := stats.Collect(cols, 20, mapreduce.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"Qo,o", "Qo,m", "Qs,f,m"} {
		q, err := QueryByName(name, QueryEnv{Params: P1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := topbuckets.Run(q, ms, 100, topbuckets.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := topbuckets.NewPlan(q, ms, 100)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := p.At(0); !ok {
					b.Fatal("empty plan")
				}
			}
		})
		b.Run(name+"/topbuckets", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topbuckets.Run(q, ms, 100, topbuckets.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/dtb", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := distribute.Assign(distribute.AlgDTB, res.Selected, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendThenQuery measures the streaming serving loop — one
// append batch, one query on the new epoch — and proves the append
// economics on the counters: sealed (base) R-trees are rebuilt only for
// compacted buckets (sealed-rebuilds/op ~ compactions/op), touched
// buckets gain one small delta tree each, and everything else is
// reused. A cold rebuild on the final data must agree with the last
// warm answer.
func BenchmarkAppendThenQuery(b *testing.B) {
	cols := []*interval.Collection{
		Uniform("C1", 10000, 11), Uniform("C2", 10000, 12), Uniform("C3", 10000, 13),
	}
	engine, err := NewEngine(cols, Options{Granules: 20, K: 50, Reducers: 8})
	if err != nil {
		b.Fatal(err)
	}
	q, err := QueryByName("Qo,m", QueryEnv{Params: P1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ { // cold + warm: memoize the query's trees
		if _, err := engine.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	const batchSize = 32
	id := int64(50_000_000)
	var sealedRebuilds, deltaTrees, compactions, reused int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]Interval, batchSize)
		for j := range batch {
			s := (int64(i)*7919 + int64(j)*104729) % 100000
			batch[j] = Interval{ID: id, Start: s, End: s + 1 + s%100}
			id++
		}
		before := engine.Store().Snapshot()
		if _, err := engine.Append(i%len(cols), batch); err != nil {
			b.Fatal(err)
		}
		report, err := engine.Execute(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		after := engine.Store().Snapshot()
		sealedRebuilds += after.TreesBuilt - before.TreesBuilt
		deltaTrees += after.DeltaTreesBuilt - before.DeltaTreesBuilt
		compactions += after.Compactions - before.Compactions
		reused += report.TreesReused
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(sealedRebuilds)/n, "sealed-rebuilds/op")
	b.ReportMetric(float64(deltaTrees)/n, "delta-trees/op")
	b.ReportMetric(float64(compactions)/n, "compactions/op")
	b.ReportMetric(float64(reused)/n, "trees-reused/op")
	// The invariant behind the metrics: appends never wholesale-invalidate
	// memoized trees, so re-running the query right after the loop builds
	// nothing (sealed builds during the loop are compaction reseals or
	// first-time lazy builds of newly selected buckets, both one-off).
	if _, err := engine.Execute(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	again, err := engine.Execute(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	if again.TreesBuilt != 0 || again.DeltaTreesBuilt != 0 {
		b.Fatalf("post-append re-run built %d sealed + %d delta trees; memoization did not survive the appends",
			again.TreesBuilt, again.DeltaTreesBuilt)
	}
	// Post-append answers must equal a cold rebuild over the same data.
	cold, err := NewEngine(cols, engine.Options())
	if err != nil {
		b.Fatal(err)
	}
	want, err := cold.Execute(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	got, err := engine.Execute(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	if !join.ScoreMultisetEqual(got.Results, want.Results, 1e-9) {
		b.Fatal("post-append results diverged from a cold rebuild")
	}
}

// BenchmarkEndToEndQuery measures a full TKIJ execution (statistics
// cached) on a mid-size 3-way query.
func BenchmarkEndToEndQuery(b *testing.B) {
	cols := []*interval.Collection{
		Uniform("C1", 20000, 1), Uniform("C2", 20000, 2), Uniform("C3", 20000, 3),
	}
	engine, err := NewEngine(cols, Options{Granules: 20, K: 100, Reducers: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.PrepareStats(); err != nil {
		b.Fatal(err)
	}
	q, err := QueryByName("Qo,m", QueryEnv{Params: P1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}
