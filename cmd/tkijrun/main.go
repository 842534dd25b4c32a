// Command tkijrun evaluates RTJ queries end to end with TKIJ.
//
// Collections are given as text files (one "id<TAB>start<TAB>end" line
// per interval, see cmd/datagen). The query is one of the paper's
// Table-1 names; -self joins n copies of the first collection, the
// §4.3 network-traffic setup.
//
// The engine is dataset-scoped: statistics and the resident bucket
// store are built once, then every -repeat execution of the query runs
// against the warm store (resident buckets read in place, memoized R-trees).
//
// Usage:
//
//	tkijrun -query Qb,b -params P1 -k 100 -g 40 C1.tsv C2.tsv C3.tsv
//	tkijrun -query QjB,jB -params P3 -self conns.tsv
//	tkijrun -query Qb,b -repeat 5 -v C1.tsv C2.tsv C3.tsv   # warm-path timings
//	tkijrun -query Qb,b -json C1.tsv C2.tsv C3.tsv          # machine-readable report
//	tkijrun -query Qb,b -save-stats s.tkij C1.tsv C2.tsv C3.tsv  # persist the offline phase
//	tkijrun -query Qb,b -load-stats s.tkij C1.tsv C2.tsv C3.tsv  # restart without re-computing it
//	tkijrun -query Qb,b -load-stats s.tkij -mmap C1.tsv C2.tsv C3.tsv  # zero-copy restart off the mapping
//
// Streaming ingest: -append streams a batch file into a collection
// through the epoch-delta path (no statistics job, no store rebuild;
// in-flight queries keep their pinned epoch), and -append-delta
// additionally records the batch as an appended delta section on the
// snapshot file, so a later -load-stats (with collection files that
// include the batch) restores base + deltas:
//
//	tkijrun -query Qo,m -load-stats s.tkij -append extra.tsv -append-delta C1.tsv C2.tsv C3.tsv
//
// Zero-copy restore: -mmap (with -load-stats) maps the snapshot file
// read-only instead of decoding it — sealed buckets are served straight
// from the mapping (only their R-trees are built on the heap), the restore
// cost is O(buckets) rather than O(intervals), and the checksum runs in
// the background (a damaged file fails the first query after discovery
// instead of the open).
//
// Plan caching: repeated runs of one query shape are served from the
// engine's plan cache — the TopBuckets solve is skipped on a hit, and
// an epoch bump promotes the cached plan
// unchanged unless it changed a bucket's shape, which plans it again.
// -append-every N re-streams the -append
// batch before every Nth repeat run to interleave ingest with queries;
// -no-plan-cache plans every run cold (the equivalence baseline). Each
// run's JSON reports plan_cache: "hit" | "revalidated" | "miss".
//
// Concurrent serving: -concurrency N routes each repeat round through
// the admission layer (tkij.Server) — N copies of the query are
// submitted at once; GOMAXPROCS of them execute while the rest queue,
// and the round's first plan is computed once for all N. Each run's
// JSON then carries batch (1: admitted through the server) and
// queue_ms (Submit-to-execution wait):
//
//	tkijrun -query Qo,m -concurrency 8 -repeat 3 -json C1.tsv C2.tsv C3.tsv
//
// Distributed execution: -shards N splits the bucket store across N
// shard workers, assigns each query's combinations to -reducers
// reducers with DTB (one per worker by default) and scatters them;
// the coordinator streams the rising shared floor to every worker so
// remote reducers early-terminate, then gathers and merges their local
// top-k lists. Results are byte-identical to -shards 1 (the in-process
// engine). Workers run in-process by default; -shard-addrs connects to
// external tkij-worker processes over TCP instead:
//
//	tkijrun -query Qo,m -shards 3 -json C1.tsv C2.tsv C3.tsv
//	tkij-worker -listen :7071 &  tkij-worker -listen :7072 &
//	tkijrun -query Qo,m -shard-addrs localhost:7071,localhost:7072 C1.tsv C2.tsv C3.tsv
//	tkijrun -query Qo,m -shards 2 -no-floor-broadcast C1.tsv C2.tsv C3.tsv  # ablation
//
// Standing queries: -subscribe registers the query as a continuous
// top-k subscription, splits the -append batch into -subscribe-chunks
// ingest batches, and after every append verifies the subscriber's
// materialized state (initial snapshot + pushed deltas) against a fresh
// sequential re-execute at the same epoch — the push-equals-fresh-
// execute equivalence gate, runnable from CI:
//
//	tkijrun -query Qo,m -subscribe -append extra.tsv -subscribe-chunks 8 -json C1.tsv C2.tsv C3.tsv
//
// Observability: -metrics-addr starts the opt-in debug HTTP server
// (Prometheus-text /metrics, JSON /varz, /healthz, /debug/pprof) for
// the life of the process; -metrics-hold keeps it up after the runs
// finish so an external scraper can read a fully-populated registry.
// -trace-out attaches a span tracer to the engine and writes the
// collected per-query span trees at exit — Chrome trace-event JSON by
// default (chrome://tracing, Perfetto), JSONL when the path ends in
// .jsonl. -check-metrics is a standalone mode: fetch a /metrics URL,
// parse it as Prometheus text, assert the core TKIJ series are present,
// and exit 0/1 — the CI smoke probe:
//
//	tkijrun -query Qo,m -repeat 3 -metrics-addr :7200 -metrics-hold 5s C1.tsv C2.tsv C3.tsv &
//	tkijrun -check-metrics http://localhost:7200/metrics
//	tkijrun -query Qo,m -trace-out trace.json C1.tsv C2.tsv C3.tsv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"tkij"
)

// jsonRun is the machine-readable report of one execution.
type jsonRun struct {
	Run   int   `json:"run"`
	Epoch int64 `json:"epoch"`
	// PlanCache is how the planning phases were served: "hit" (cached
	// plan, same epoch), "revalidated" (cached plan promoted unchanged
	// across epoch bumps that changed no bucket's shape), or "miss"
	// (planned cold, also after a shape-changing epoch bump).
	PlanCache           string  `json:"plan_cache"`
	PlanMillis          float64 `json:"plan_ms"`
	PlanSavedMillis     float64 `json:"plan_saved_ms"`
	JoinMillis          float64 `json:"join_ms"`
	TotalMillis         float64 `json:"total_ms"`
	TreesBuilt          int64   `json:"trees_built"`
	TreesReused         int64   `json:"trees_reused"`
	RoutedBucketEntries int     `json:"routed_bucket_entries"`
	RoutedIntervals     float64 `json:"routed_interval_records"`
	SharedFloor         float64 `json:"shared_floor"`
	// Batch is 1 when this run was admitted through the server and 0
	// for direct execution; QueueMillis is the Submit-to-execution wait
	// inside the server.
	Batch       int     `json:"batch"`
	QueueMillis float64 `json:"queue_ms"`
	// MinKthScore is the minimum k-th local score across reducers that
	// returned results (0 when none did; never NaN).
	MinKthScore float64 `json:"min_kth_score"`
	// Shards is the shard-cluster size the run executed on (0 for the
	// in-process engine). ShippedBuckets/ShippedRecords count bucket
	// payloads the coordinator shipped to workers that did not own them,
	// and FloorFrames the floor-broadcast frames exchanged for this query.
	Shards         int     `json:"shards"`
	ShippedBuckets int     `json:"shipped_buckets"`
	ShippedRecords float64 `json:"shipped_interval_records"`
	FloorFrames    int64   `json:"floor_frames"`
}

type jsonReport struct {
	Query      string  `json:"query"`
	K          int     `json:"k"`
	PrepMillis float64 `json:"prep_ms"`
	// Restored reports whether the offline phase came from a snapshot
	// (-load-stats) instead of being computed.
	Restored bool `json:"restored"`
	// Appended is the number of intervals streamed in via -append;
	// Epoch is the store epoch after those appends.
	Appended    int          `json:"appended"`
	Epoch       int64        `json:"epoch"`
	Runs        []jsonRun    `json:"runs"`
	Results     []jsonResult `json:"results"`
	NumReducers int          `json:"reducers"`
	// Standing is present in -subscribe mode: the per-append push trace
	// and the standing layer's work counters.
	Standing *jsonStanding `json:"standing,omitempty"`
}

type jsonResult struct {
	Score float64 `json:"score"`
	Tuple []struct {
		ID    int64 `json:"id"`
		Start int64 `json:"start"`
		End   int64 `json:"end"`
	} `json:"tuple"`
}

// jsonPush is the machine-readable report of one ingest append observed
// through a standing subscription (-subscribe mode).
type jsonPush struct {
	Append    int   `json:"append"`
	Epoch     int64 `json:"epoch"`
	Intervals int   `json:"intervals"`
	// Deltas drained for this epoch, and how they decomposed.
	Deltas  int     `json:"deltas"`
	Resyncs int     `json:"resyncs"`
	Entered int     `json:"entered"`
	Left    int     `json:"left"`
	Floor   float64 `json:"floor"`
	// FreshMillis is the cost of the sequential re-execute the push was
	// verified against — the work a non-standing client would redo.
	FreshMillis float64 `json:"fresh_ms"`
	// Verified records that the materialized push state matched the
	// fresh execute (the process exits non-zero otherwise).
	Verified bool `json:"verified"`
}

// jsonStanding summarizes a -subscribe session: per-append pushes plus
// the standing layer's work counters.
type jsonStanding struct {
	Chunks     int   `json:"chunks"`
	Pushes     int64 `json:"pushes"`
	Promotions int64 `json:"promotions"`
	// ProbedCombos sums the combinations the pushes' executions read
	// from their plans.
	ProbedCombos  int64      `json:"probed_combos"`
	DroppedDeltas int64      `json:"dropped_deltas"`
	Appends       []jsonPush `json:"appends"`
}

func main() {
	var (
		queryName = flag.String("query", "Qb,b", "Table-1 query name (Qb,b Qo,o Qf,f Qs,s Qs,f,m Qf,b Qo,m Qs,m QjB,jB QsM,sM)")
		params    = flag.String("params", "P1", "predicate parameter set: P1 | P2 | P3 | PB")
		k         = flag.Int("k", 100, "number of results")
		g         = flag.Int("g", 40, "granules per collection")
		reducers  = flag.Int("reducers", 0, "with -shards/-shard-addrs: reducers each query's DTB assignment scatters (0 = one per shard worker); a local query is one reducer")
		self      = flag.Bool("self", false, "self-join: map every query vertex to the first collection")
		repeat    = flag.Int("repeat", 1, "execute the query N times on the warm engine")
		saveStats = flag.String("save-stats", "", "after the offline phase, persist matrices + bucket store to this snapshot file")
		loadStats = flag.String("load-stats", "", "restore the offline phase from a snapshot file instead of computing it")
		useMmap   = flag.Bool("mmap", false, "with -load-stats: map the snapshot read-only and serve sealed buckets from the mapping (zero-copy restore)")
		appendSrc = flag.String("append", "", "stream this batch file's intervals into the engine (epoch-delta ingest) before querying")
		appendCol = flag.Int("append-col", 0, "collection index the -append batch streams into")
		appendDlt = flag.Bool("append-delta", false, "also record the -append batch as a delta section on the snapshot file (-load-stats or -save-stats path)")
		appendEvr = flag.Int("append-every", 0, "re-stream the -append batch before every Nth repeat run (interleaves epoch bumps with queries; exercises plan-cache promotion and re-planning)")
		noCache   = flag.Bool("no-plan-cache", false, "disable the query-plan cache: plan every execution cold")
		shards    = flag.Int("shards", 0, "split the bucket store across N in-process shard workers and run the join distributed (0/1 = local execution)")
		shardAddr = flag.String("shard-addrs", "", "comma-separated tkij-worker TCP addresses to shard across (overrides -shards)")
		noFloorBc = flag.Bool("no-floor-broadcast", false, "with -shards: do not stream the rising score floor to workers (ablation; results are unchanged, remote pruning is lost)")
		conc      = flag.Int("concurrency", 1, "submit N copies of the query concurrently per repeat round through the admission layer (1 = direct execution)")
		subscribe = flag.Bool("subscribe", false, "standing-query mode: subscribe to the query, stream the -append batch chunk by chunk, and verify the pushed top-k against a fresh re-execute after every append")
		subChunks = flag.Int("subscribe-chunks", 8, "with -subscribe: number of ingest batches the -append file is split into")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON report")
		verbose   = flag.Bool("v", false, "print phase metrics")
		top       = flag.Int("print", 10, "number of results to print")
		metrics   = flag.String("metrics-addr", "", "serve the debug/metrics HTTP endpoint (/metrics, /varz, /healthz, /debug/pprof) on this address")
		holdFor   = flag.Duration("metrics-hold", 0, "with -metrics-addr: keep the endpoint up this long after the runs finish (lets an external scraper read the populated registry)")
		traceOut  = flag.String("trace-out", "", "attach a span tracer and write the collected trace here at exit (Chrome trace-event JSON; .jsonl suffix switches to JSONL)")
		checkURL  = flag.String("check-metrics", "", "standalone mode: fetch this /metrics URL, validate the Prometheus text and the core TKIJ series, exit 0/1")
	)
	flag.Parse()
	if *checkURL != "" {
		checkMetrics(*checkURL)
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "tkijrun: no collection files given")
		flag.Usage()
		os.Exit(2)
	}
	if *repeat < 1 {
		*repeat = 1
	}

	pp, ok := map[string]tkij.PairParams{"P1": tkij.P1, "P2": tkij.P2, "P3": tkij.P3, "PB": tkij.PB}[*params]
	if !ok {
		fatal(fmt.Errorf("unknown parameter set %q", *params))
	}

	var cols []*tkij.Collection
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		c, err := tkij.ReadCollection(f, path)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cols = append(cols, c)
	}

	q, err := tkij.QueryByName(*queryName, tkij.QueryEnv{Params: pp, Avg: tkij.AvgLength(cols...)})
	if err != nil {
		fatal(err)
	}
	opts := tkij.Options{
		Granules: *g, K: *k, Reducers: *reducers,
		PlanCache: tkij.PlanCacheOptions{Disabled: *noCache},
		Mmap:      *useMmap,
		Shards:    *shards, ShardNoFloorBroadcast: *noFloorBc,
	}
	var tracer *tkij.Tracer
	if *traceOut != "" {
		tracer = tkij.NewTracer()
		opts.Tracer = tracer
	}
	if *shardAddr != "" {
		opts.ShardAddrs = strings.Split(*shardAddr, ",")
	}
	var engine *tkij.Engine
	if *loadStats != "" {
		// Restored engine: the offline phase is read back from the
		// snapshot, so PrepareStats below is a no-op and the first query
		// runs zero statistics work.
		engine, err = tkij.OpenEngine(cols, *loadStats, opts)
	} else {
		if *useMmap {
			fatal(fmt.Errorf("-mmap restores from a snapshot file; it needs -load-stats"))
		}
		engine, err = tkij.NewEngine(cols, opts)
	}
	if err != nil {
		fatal(err)
	}
	if engine.Mapped() {
		fmt.Fprintf(os.Stderr, "tkijrun: snapshot %s mapped read-only (zero-copy restore)\n", *loadStats)
	}

	mapping := make([]int, q.NumVertices)
	if !*self {
		if len(cols) < q.NumVertices {
			fatal(fmt.Errorf("query %s needs %d collections, got %d (or use -self)", q.Name, q.NumVertices, len(cols)))
		}
		for i := range mapping {
			mapping[i] = i
		}
	}

	if err := engine.PrepareStats(); err != nil {
		fatal(err)
	}
	if *saveStats != "" {
		if err := engine.SaveSnapshot(*saveStats); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tkijrun: offline phase saved to %s\n", *saveStats)
	}

	appended := 0
	var batch *tkij.Collection
	if *appendSrc != "" {
		f, err := os.Open(*appendSrc)
		if err != nil {
			fatal(err)
		}
		batch, err = tkij.ReadCollection(f, *appendSrc)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	// The admission layer is created up front when a mode needs
	// it (-subscribe registers subscriptions through it; -concurrency > 1
	// routes repeat rounds through it) so the debug endpoint can bridge
	// its stats for the whole run.
	var server *tkij.Server
	if *subscribe || *conc > 1 {
		server = tkij.NewServer(engine, tkij.ServerOptions{})
		defer server.Close()
	}
	var debugSrv *tkij.DebugServer
	if *metrics != "" {
		debugSrv, err = tkij.ServeDebug(*metrics, engine, server)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tkijrun: debug/metrics endpoint on http://%s/metrics\n", debugSrv.Addr())
	}
	// Normal exits flush the observability sinks: hold the endpoint for
	// late scrapers, shut it down bounded, write the trace file.
	defer shutdownObs(debugSrv, *holdFor, tracer, *traceOut)

	if *subscribe {
		if batch == nil {
			fatal(fmt.Errorf("-subscribe streams the -append batch; give it one"))
		}
		if *appendDlt {
			fatal(fmt.Errorf("-append-delta is not supported with -subscribe"))
		}
		runSubscribe(engine, server, q, mapping, batch, subscribeConfig{
			k: *k, appendCol: *appendCol, chunks: *subChunks, top: *top,
			jsonOut: *jsonOut, verbose: *verbose,
			reducers: *reducers,
		})
		return
	}
	if batch != nil {
		epoch, err := engine.Append(*appendCol, batch.Items)
		if err != nil {
			fatal(err)
		}
		appended = batch.Len()
		fmt.Fprintf(os.Stderr, "tkijrun: streamed %d intervals into collection %d (epoch %d)\n",
			appended, *appendCol, epoch)
		if *appendDlt {
			path := *loadStats
			if path == "" {
				path = *saveStats
			}
			if path == "" {
				fatal(fmt.Errorf("-append-delta needs a snapshot path (-load-stats or -save-stats)"))
			}
			fileEpoch, err := tkij.AppendSnapshotDelta(path, *appendCol, batch.Items)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "tkijrun: delta section (epoch %d) appended to %s\n", fileEpoch, path)
		}
	}
	jr := jsonReport{Query: q.Name, K: *k, NumReducers: *reducers,
		PrepMillis: millis(engine.StatsDuration), Restored: engine.Restored(),
		Appended: appended, Epoch: engine.Epoch()}

	// With -concurrency > 1, every repeat round submits N copies of the
	// query at once through the admission layer; the first of them plans
	// the round's shape and the others wait for that plan.
	runOnce := func() []*tkij.Report {
		if server == nil {
			r, err := engine.ExecuteMapped(context.Background(), q, mapping)
			if err != nil {
				fatal(err)
			}
			return []*tkij.Report{r}
		}
		reports := make([]*tkij.Report, *conc)
		errs := make([]error, *conc)
		var wg sync.WaitGroup
		for i := 0; i < *conc; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reports[i], errs[i] = server.Submit(context.Background(), q, mapping)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				fatal(err)
			}
		}
		return reports
	}

	var report *tkij.Report
	seq := 0
	for run := 0; run < *repeat; run++ {
		// Interleave ingest with the repeated runs: every Nth run first
		// re-streams the batch, so the cached plan must be promoted or
		// planned again across the epoch bump, never served as a hit.
		if run > 0 && batch != nil && *appendEvr > 0 && run%*appendEvr == 0 {
			if _, err := engine.Append(*appendCol, batch.Items); err != nil {
				fatal(err)
			}
			appended += batch.Len()
		}
		for _, report = range runOnce() {
			jr.Runs = append(jr.Runs, jsonRun{
				Run:                 seq,
				Epoch:               report.Epoch,
				PlanCache:           report.PlanOutcome(),
				PlanMillis:          millis(report.TopBucketsTime),
				PlanSavedMillis:     millis(report.PlanSavedTime),
				JoinMillis:          millis(report.JoinTime),
				TotalMillis:         millis(report.Total),
				TreesBuilt:          report.TreesBuilt,
				TreesReused:         report.TreesReused,
				RoutedBucketEntries: report.Join.RoutedBucketEntries,
				RoutedIntervals:     report.Join.RoutedIntervalRecords,
				SharedFloor:         report.Join.SharedFloor,
				MinKthScore:         minKth(report),
				Batch:               report.BatchSize,
				QueueMillis:         millis(report.QueueWait),
				Shards:              report.ShardCount,
				ShippedBuckets:      report.ShardShippedBuckets,
				ShippedRecords:      report.ShardShippedRecords,
				FloorFrames:         report.ShardFloorFrames,
			})
			if !*jsonOut && (*repeat > 1 || *conc > 1) {
				fmt.Printf("run %d: %v (plan %s %v, join %v, batch %d, queue %v, trees built %d, reused %d)\n",
					seq, report.Total, report.PlanOutcome(), report.TopBucketsTime,
					report.JoinTime, report.BatchSize, report.QueueWait,
					report.TreesBuilt, report.TreesReused)
			}
			seq++
		}
	}
	// Appends may have landed between runs (-append-every); report the
	// final counts.
	jr.Appended = appended
	jr.Epoch = engine.Epoch()

	if *jsonOut {
		for _, r := range report.Results {
			res := jsonResult{Score: r.Score}
			for _, iv := range r.Tuple {
				res.Tuple = append(res.Tuple, struct {
					ID    int64 `json:"id"`
					Start int64 `json:"start"`
					End   int64 `json:"end"`
				}{iv.ID, iv.Start, iv.End})
			}
			jr.Results = append(jr.Results, res)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jr); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("query %s: %d results in %v (dataset prep %v, resident store reused across queries)\n",
		q.Name, len(report.Results), report.Total, engine.StatsDuration)
	if *verbose {
		read := 0
		for _, l := range report.Join.Locals {
			read += l.CombosAssigned
		}
		fmt.Printf("  topbuckets: %v  (|Ω|=%.0f, %d combinations read, kthResLB=%.3f)\n",
			report.TopBucketsTime, report.TopBuckets.TotalCombos, read, report.TopBuckets.KthResLB)
		fmt.Printf("  join:       %v  (%d bucket refs routed, shared floor %.3f, reducer imbalance %.2f)\n",
			report.JoinTime, report.Join.RoutedBucketEntries, report.Join.SharedFloor, report.Imbalance())
		fmt.Printf("  store:      %d trees built, %d reused this query\n", report.TreesBuilt, report.TreesReused)
		if report.ShardCount > 0 {
			fmt.Printf("  shards:     %d workers (%d buckets / %.0f records shipped, %d floor frames)\n",
				report.ShardCount, report.ShardShippedBuckets, report.ShardShippedRecords, report.ShardFloorFrames)
		}
		fmt.Printf("  merge:      %v\n", report.MergeTime)
	}
	for i, r := range report.Results {
		if i >= *top {
			break
		}
		fmt.Printf("  #%d score=%.4f tuple=%v\n", i+1, r.Score, r.Tuple)
	}
}

// subscribeConfig carries the flag values -subscribe mode needs.
type subscribeConfig struct {
	k, appendCol, chunks, top, reducers int
	jsonOut, verbose                    bool
}

// runSubscribe is -subscribe mode: register the query as a standing
// subscription, stream the batch chunk by chunk, and after every append
// verify the subscriber-materialized top-k (initial snapshot + deltas
// folded through SubscriptionTopK.Apply) against a fresh sequential
// re-execute at the same epoch. Any divergence is fatal — this is the
// push-equals-fresh-execute gate CI runs.
func runSubscribe(engine *tkij.Engine, server *tkij.Server, q *tkij.Query, mapping []int, batch *tkij.Collection, cfg subscribeConfig) {
	sub, err := server.Subscribe(context.Background(), q, cfg.k, tkij.SubscribeOptions{Mapping: mapping})
	if err != nil {
		fatal(err)
	}
	defer sub.Close()

	tk := tkij.NewSubscriptionTopK(cfg.k)
	lastFloor := -1.0 // floor carried by the last applied delta
	// drain folds deltas into tk until it has caught up with epoch,
	// returning what arrived for the report.
	drain := func(epoch int64) (deltas, resyncs, entered, left int) {
		for tk.Seq == 0 || tk.Epoch < epoch {
			d, ok := <-sub.Deltas()
			if !ok {
				fatal(fmt.Errorf("subscription closed: %v", sub.Err()))
			}
			if err := tk.Apply(d); err != nil {
				fatal(fmt.Errorf("delta seq %d failed to apply: %v", d.Seq, err))
			}
			deltas++
			if d.Resync {
				resyncs++
			}
			entered += len(d.Entered)
			left += len(d.Left)
			lastFloor = d.Floor
		}
		return
	}
	fresh := func() (*tkij.Report, time.Duration) {
		start := time.Now()
		rep, err := engine.ExecuteMapped(context.Background(), q, mapping)
		if err != nil {
			fatal(err)
		}
		return rep, time.Since(start)
	}

	jr := jsonReport{Query: q.Name, K: cfg.k, NumReducers: cfg.reducers,
		PrepMillis: millis(engine.StatsDuration), Restored: engine.Restored()}
	chunks := cfg.chunks
	if chunks < 1 {
		chunks = 1
	}
	if chunks > batch.Len() {
		chunks = batch.Len()
	}
	st := jsonStanding{Chunks: chunks}

	// Initial snapshot: the subscription's first delta must reproduce a
	// fresh execute at the subscribe epoch.
	drain(engine.Epoch())
	initRep, _ := fresh()
	if err := verifyPush(tk.Results, initRep.Results); err != nil {
		fatal(fmt.Errorf("initial snapshot diverges from fresh execute: %v", err))
	}

	appended := 0
	for c := 0; c < chunks; c++ {
		lo, hi := c*batch.Len()/chunks, (c+1)*batch.Len()/chunks
		chunk := batch.Items[lo:hi]
		epoch, err := engine.Append(cfg.appendCol, chunk)
		if err != nil {
			fatal(err)
		}
		appended += len(chunk)
		deltas, resyncs, entered, left := drain(epoch)
		rep, freshTime := fresh()
		if err := verifyPush(tk.Results, rep.Results); err != nil {
			fatal(fmt.Errorf("append %d (epoch %d): pushed state diverges from fresh execute: %v", c, epoch, err))
		}
		push := jsonPush{
			Append: c, Epoch: epoch, Intervals: len(chunk),
			Deltas: deltas, Resyncs: resyncs, Entered: entered, Left: left,
			Floor: lastFloor, FreshMillis: millis(freshTime), Verified: true,
		}
		st.Appends = append(st.Appends, push)
		if !cfg.jsonOut {
			fmt.Printf("append %d: epoch %d (+%d intervals) — %d delta(s), %d entered, %d left, %d resync(s), floor %.4f, verified against fresh execute (%.1fms)\n",
				c, epoch, len(chunk), deltas, entered, left, resyncs, lastFloor, push.FreshMillis)
		}
	}

	stats := server.StandingStats()
	st.Pushes, st.Promotions = stats.Pushes, stats.Promotions
	st.ProbedCombos = stats.ProbedCombos
	st.DroppedDeltas = stats.DroppedDeltas
	jr.Standing = &st
	jr.Appended = appended
	jr.Epoch = engine.Epoch()

	if cfg.jsonOut {
		for _, r := range tk.Results {
			res := jsonResult{Score: r.Score}
			for _, iv := range r.Tuple {
				res.Tuple = append(res.Tuple, struct {
					ID    int64 `json:"id"`
					Start int64 `json:"start"`
					End   int64 `json:"end"`
				}{iv.ID, iv.Start, iv.End})
			}
			jr.Results = append(jr.Results, res)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jr); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("standing query %s: %d appends verified push-equals-fresh-execute (%d pushes, %d promotions)\n",
		q.Name, chunks, stats.Pushes, stats.Promotions)
	if cfg.verbose {
		fmt.Printf("  combos:  %d read by the pushes' executions\n", stats.ProbedCombos)
		fmt.Printf("  deltas:  %d dropped to slow-subscriber coalescing\n", stats.DroppedDeltas)
	}
	for i, r := range tk.Results {
		if i >= cfg.top {
			break
		}
		fmt.Printf("  #%d score=%.4f tuple=%v\n", i+1, r.Score, r.Tuple)
	}
}

// verifyPush checks the standing-equivalence contract between the
// subscriber-materialized list and a fresh execute at the same epoch:
// equal ranked lists, the same score and tuple IDs at every rank.
func verifyPush(got, want []tkij.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("pushed %d results, fresh execute has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score || !sameTuple(got[i], want[i]) {
			return fmt.Errorf("rank %d: pushed %v (score %.9f), fresh execute %v (score %.9f)",
				i+1, got[i].Tuple, got[i].Score, want[i].Tuple, want[i].Score)
		}
	}
	return nil
}

func sameTuple(a, b tkij.Result) bool {
	if len(a.Tuple) != len(b.Tuple) {
		return false
	}
	for i := range a.Tuple {
		if a.Tuple[i].ID != b.Tuple[i].ID {
			return false
		}
	}
	return true
}

// minKth returns the minimum k-th local score across reducers with
// results; 0 when none returned results (LocalStats.MinScore is
// NaN-free by construction, keeping the report JSON-encodable).
func minKth(report *tkij.Report) float64 {
	min, seen := 0.0, false
	for _, l := range report.Join.Locals {
		if l.ResultsReturned == 0 {
			continue
		}
		if !seen || l.MinScore < min {
			min, seen = l.MinScore, true
		}
	}
	return min
}

// shutdownObs flushes the observability sinks on a normal exit: hold
// the debug endpoint for late scrapers (-metrics-hold), shut it down
// under a bounded context, and write the collected trace (-trace-out).
func shutdownObs(debugSrv *tkij.DebugServer, hold time.Duration, tracer *tkij.Tracer, traceOut string) {
	if debugSrv != nil {
		if hold > 0 {
			fmt.Fprintf(os.Stderr, "tkijrun: holding metrics endpoint for %v\n", hold)
			time.Sleep(hold)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := debugSrv.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "tkijrun: metrics endpoint shutdown:", err)
		}
		cancel()
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		jsonl := strings.HasSuffix(traceOut, ".jsonl")
		if err := tkij.WriteTrace(tracer, f, jsonl); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		format := "chrome-trace"
		if jsonl {
			format = "jsonl"
		}
		fmt.Fprintf(os.Stderr, "tkijrun: trace written to %s (%s)\n", traceOut, format)
	}
}

// checkMetrics is -check-metrics mode: fetch a /metrics URL, parse it
// as Prometheus text (any malformed line fails the parse), and assert
// the core TKIJ series families are present — the CI smoke probe. The
// families are registered at package init, so they are present (at
// zero) on any live tkijrun endpoint; missing families mean the
// instrumentation was unlinked or the endpoint is not a TKIJ process.
func checkMetrics(url string) {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("check-metrics: %s returned %s", url, resp.Status))
	}
	series, err := tkij.ParseMetricsText(resp.Body)
	if err != nil {
		fatal(fmt.Errorf("check-metrics: invalid Prometheus text: %v", err))
	}
	families := []string{
		"tkij_core_queries_total",
		"tkij_core_query_seconds",
		"tkij_core_phase_seconds",
		"tkij_core_appends_total",
		"tkij_plancache_outcome_total",
		"tkij_admission_submitted_total",
		"tkij_standing_routing_total",
		"tkij_shard_frames_sent_total",
		"tkij_shard_shipped_bytes_total",
	}
	labels := []string{
		`phase="topbuckets"`, `phase="join"`, `phase="merge"`,
		`outcome="hit"`, `outcome="revalidated"`, `outcome="miss"`,
		`route="promote"`, `route="push"`,
	}
	var missing []string
	for _, fam := range families {
		if !hasSeriesPrefix(series, fam) {
			missing = append(missing, fam)
		}
	}
	for _, l := range labels {
		if !hasSeriesSubstring(series, l) {
			missing = append(missing, l)
		}
	}
	if len(missing) > 0 {
		fatal(fmt.Errorf("check-metrics: %d series parsed but missing: %s",
			len(series), strings.Join(missing, ", ")))
	}
	fmt.Printf("check-metrics: ok — %d series, all %d core families present\n",
		len(series), len(families))
}

func hasSeriesPrefix(series map[string]float64, prefix string) bool {
	for name := range series {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func hasSeriesSubstring(series map[string]float64, sub string) bool {
	for name := range series {
		if strings.Contains(name, sub) {
			return true
		}
	}
	return false
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tkijrun:", err)
	os.Exit(1)
}
