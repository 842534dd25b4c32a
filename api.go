// Package tkij is a Go implementation of TKIJ — the distributed top-k
// temporal join algorithm of Pilourdault, Leroy and Amer-Yahia,
// "Distributed Evaluation of Top-k Temporal Joins" (SIGMOD 2016).
//
// TKIJ evaluates n-ary Ranked Temporal Join (RTJ) queries: joins over
// collections of time intervals whose predicates compare interval
// endpoints (the Allen algebra plus custom predicates such as
// justBefore and sparks) and are satisfied to a degree, scored in
// [0, 1]. A query returns the k best tuples under a monotone
// aggregation of per-predicate scores.
//
// The pipeline has four stages and is built for multi-query serving:
// stages 1 and 2 run once per dataset, stages 3 and 4 once per query,
// and one engine safely serves concurrent queries from many goroutines.
//
//  1. Offline, query-independent statistics: time is partitioned into
//     granules and each collection summarized by a bucket matrix
//     counting intervals per (start granule, end granule) pair.
//  2. Dataset-resident bucket store: each collection's intervals are
//     partitioned by bucket once; per-bucket R-trees are bulk-built
//     lazily and memoized, shared across queries and reducers.
//  3. TopBuckets: query-dependent score bounds are computed per bucket
//     combination (via an interval branch-and-bound solver standing in
//     for the paper's constraint solver) and combinations that cannot
//     contribute a top-k result are pruned with a correctness
//     certificate.
//  4. Join: one pass over the selected combinations by descending
//     score upper bound, reading the resident buckets and their
//     memoized R-trees in place (no interval moves at query time), which
//     stops once the next combination cannot beat the k-th result. A
//     sharded engine instead splits the combinations over reducers with
//     DistributeTopBuckets (DTB) — spreading high-scoring results to
//     enable early termination, capping worst-case load, minimizing
//     replication — and scatters them to shard workers that share a
//     global top-k threshold; one merge produces the final top-k.
//
// Stage 3 (bound solving and pruning) is memoized per query shape in an
// epoch-keyed plan cache: repeated shapes skip it on a hit, and a
// streaming append promotes a cached plan unchanged unless it created a
// bucket or widened a boundary granule, which plans it again (see
// Options.PlanCache and Report.PlanCacheHit).
//
// Quickstart:
//
//	c1 := tkij.Uniform("C1", 100000, 1)
//	c2 := tkij.Uniform("C2", 100000, 2)
//	engine, err := tkij.NewEngine([]*tkij.Collection{c1, c2}, tkij.Options{K: 10})
//	if err != nil { ... }
//	q, err := tkij.NewQuery("meets", 2,
//		[]tkij.Edge{{From: 0, To: 1, Pred: tkij.Meets(tkij.P1)}}, tkij.Avg{})
//	if err != nil { ... }
//	report, err := engine.Execute(context.Background(), q)
//	for _, r := range report.Results {
//		fmt.Println(r.Score, r.Tuple)
//	}
//
// For heavy concurrent traffic, wrap the engine in a Server: Submit
// caps the queries executing at once, queues the rest in arrival order
// and rejects past a bounded queue (see NewServer).
package tkij

import (
	"errors"
	"io"

	"tkij/internal/admission"
	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/obs"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/snapshot"
	"tkij/internal/standing"
)

// Data model.
type (
	// Interval is a closed time interval with integer endpoints.
	Interval = interval.Interval
	// Timestamp is a point in time.
	Timestamp = interval.Timestamp
	// Collection is a named multiset of intervals (one join input).
	Collection = interval.Collection
)

// NewCollection returns a named collection wrapping items.
func NewCollection(name string, items []Interval) *Collection {
	return interval.NewCollection(name, items)
}

// ReadCollection parses the text format (one "id start end" line per
// interval) from r.
func ReadCollection(r io.Reader, name string) (*Collection, error) {
	return interval.ReadText(r, name)
}

// WriteCollection serializes c to w in the text format.
func WriteCollection(w io.Writer, c *Collection) error {
	return interval.WriteText(w, c)
}

// AvgLength returns the average interval length over the collections —
// the avg parameter of JustBefore and ShiftMeets.
func AvgLength(cols ...*Collection) float64 { return interval.AvgLength(cols...) }

// Scoring.
type (
	// Params are the (λ, ρ) tolerance parameters of one comparator.
	Params = scoring.Params
	// PairParams bundles equals/greater parameters for one predicate.
	PairParams = scoring.PairParams
	// Predicate is a scored temporal predicate.
	Predicate = scoring.Predicate
	// Aggregator combines per-edge scores into a tuple score; it must be
	// monotone.
	Aggregator = scoring.Aggregator
	// Avg is the paper's normalized-sum aggregator.
	Avg = scoring.Avg
	// Sum is the unnormalized sum aggregator.
	Sum = scoring.Sum
	// Min scores a tuple by its weakest edge.
	Min = scoring.Min
	// WeightedSum is a positive-weight weighted average.
	WeightedSum = scoring.WeightedSum
)

// The predicate parameter sets of Table 2. PB is the Boolean special
// case.
var (
	P1 = scoring.P1
	P2 = scoring.P2
	P3 = scoring.P3
	PB = scoring.PB
)

// Before builds s-before(x, y): x ends before y starts.
func Before(pp PairParams) *Predicate { return scoring.Before(pp) }

// Equals builds s-equals(x, y): x and y coincide.
func Equals(pp PairParams) *Predicate { return scoring.Equals(pp) }

// Meets builds s-meets(x, y): y starts when x finishes.
func Meets(pp PairParams) *Predicate { return scoring.Meets(pp) }

// Overlaps builds s-overlaps(x, y): x starts first, they overlap, y ends
// last.
func Overlaps(pp PairParams) *Predicate { return scoring.Overlaps(pp) }

// Contains builds s-contains(x, y): x strictly contains y.
func Contains(pp PairParams) *Predicate { return scoring.Contains(pp) }

// Starts builds s-starts(x, y): they start together, x ends first.
func Starts(pp PairParams) *Predicate { return scoring.Starts(pp) }

// FinishedBy builds s-finishedBy(x, y): x starts first, they finish
// together.
func FinishedBy(pp PairParams) *Predicate { return scoring.FinishedBy(pp) }

// JustBefore builds s-justBefore(x, y): y follows x within the average
// interval length avg.
func JustBefore(pp PairParams, avg float64) *Predicate { return scoring.JustBefore(pp, avg) }

// ShiftMeets builds s-shiftMeets(x, y): y starts one average length
// after x ends.
func ShiftMeets(pp PairParams, avg float64) *Predicate { return scoring.ShiftMeets(pp, avg) }

// Sparks builds s-sparks(x, y): y follows x and lasts over 10x longer.
func Sparks(pp PairParams) *Predicate { return scoring.Sparks(pp) }

// PredicateByName resolves a predicate by name ("meets", "s-meets",
// "justBefore", ...).
func PredicateByName(name string, pp PairParams, avg float64) (*Predicate, bool) {
	return scoring.ByName(name, pp, avg)
}

// Queries.
type (
	// Query is an n-ary RTJ query: a weakly connected oriented simple
	// graph with scored predicates on edges.
	Query = query.Query
	// Edge is one labeled query edge.
	Edge = query.Edge
	// QueryEnv carries the dataset-dependent inputs of the Table-1 query
	// catalog.
	QueryEnv = query.Env
)

// NewQuery builds and validates a query.
func NewQuery(name string, numVertices int, edges []Edge, agg Aggregator) (*Query, error) {
	return query.New(name, numVertices, edges, agg)
}

// QueryByName builds one of the paper's Table-1 queries ("Qb,b",
// "Qo,m", "QjB,jB", ...).
func QueryByName(name string, env QueryEnv) (*Query, error) {
	return query.ByName(name, env)
}

// Execution.
type (
	// Engine evaluates RTJ queries over a fixed set of collections,
	// collecting statistics once and reusing them across queries.
	Engine = core.Engine
	// Options configures an Engine; the zero value uses the paper's
	// defaults (g = 40, k = 100). Every query is planned with the loose
	// bounds as a lazy plan, and a local query joins it in one pass;
	// Reducers shapes only a sharded engine's DTB scatter.
	Options = core.Options
	// Report describes one query execution, including per-phase metrics.
	Report = core.Report
	// Result is one scored answer tuple.
	Result = join.Result
	// PlanCacheOptions tunes (or disables) the engine's query-plan
	// cache: repeated query shapes skip TopBuckets on a hit, and a
	// streaming append promotes a cached plan unchanged unless it changed
	// a bucket's shape. Set it on Options.PlanCache; the zero value
	// enables the cache with default bounds.
	PlanCacheOptions = plancache.Options
	// PlanCacheStats is a snapshot of plan-cache activity
	// (Engine.PlanCacheStats): hits, promotions (Revalidations),
	// misses, evictions, and the retained cost.
	PlanCacheStats = plancache.Stats
)

// Serving. A Server is the admission layer over one engine: a bounded
// FIFO queue in front of Engine.ExecuteMapped. At most MaxInflight
// Submits execute at once, each on an epoch view it pins itself; the
// rest wait in arrival order, at most MaxQueue of them. Concurrent
// first queries of one shape share one plan through the plan cache's
// single-flight, so a Submit answers exactly what Engine.Execute
// answers at the same epoch.
type (
	// Server admits concurrent queries over one Engine.
	Server = admission.Server
	// ServerOptions tunes admission: queue depth (backpressure) and the
	// in-flight execution cap, which also bounds live epoch views under
	// ingest. The zero value uses sensible defaults.
	ServerOptions = admission.Options
	// ServerStats is a snapshot of a Server's admission activity.
	ServerStats = admission.Stats
)

// Serving errors: ErrServerClosed is returned by Submit after Close;
// ErrQueueFull is the backpressure signal (queue at capacity, query
// rejected without waiting). ErrCanceled marks executions aborted by
// their context, whether queued or between phases.
var (
	ErrServerClosed = admission.ErrClosed
	ErrQueueFull    = admission.ErrQueueFull
	ErrCanceled     = core.ErrCanceled
)

// NewServer returns a Server over engine. Close it to stop admission;
// Close returns once every accepted Submit has returned.
func NewServer(engine *Engine, opts ServerOptions) *Server {
	return admission.New(engine, opts)
}

// Standing queries. Server.Subscribe registers a continuous top-k
// subscription: the query executes once at the current epoch and the
// returned Subscription's Deltas channel carries that initial snapshot
// (a resync delta) followed by one incremental delta per ingest push —
// the membership change between the pushed top-k and one execution at
// the new epoch, through the plan cache (an epoch that grew nothing the
// query reads is promoted without one). A consumer folding the deltas
// through SubscriptionTopK.Apply materializes, after every delta, byte
// for byte the result list a fresh Execute at that epoch returns.
type (
	// Subscription is one registered standing query; receive on
	// Deltas, stop with Close, inspect the terminal cause with Err.
	Subscription = standing.Subscription
	// SubscriptionDelta is one push: a full-state resync or an
	// incremental membership change (Entered/Left) with the new epoch
	// and k-th score floor.
	SubscriptionDelta = standing.Delta
	// SubscribeOptions tunes one subscription: vertex-to-collection
	// mapping and delta-queue depth before slow-subscriber coalescing.
	SubscribeOptions = standing.SubOptions
	// SubscriptionTopK materializes a subscription's result list
	// client-side by applying deltas in order; it validates each delta
	// against the subscription contract and fails loudly on malformed
	// or reordered input.
	SubscriptionTopK = standing.TopK
	// StandingStats counts the standing layer's work: pushes,
	// promotions, resyncs, the combinations the pushes read, dropped
	// deltas.
	StandingStats = standing.Stats
)

// NewSubscriptionTopK returns an empty client-side materializer for a
// subscription serving k results.
func NewSubscriptionTopK(k int) *SubscriptionTopK { return standing.NewTopK(k) }

// NewEngine validates the collections and returns an engine.
func NewEngine(cols []*Collection, opts Options) (*Engine, error) {
	return core.NewEngine(cols, opts)
}

// OpenEngine restores a warm engine from a snapshot written by
// Engine.SaveSnapshot: the offline phase (bucket matrices + resident
// bucket store) is loaded from the file instead of computed, so the
// first query runs zero statistics work. cols must be the dataset the
// snapshot was built from.
func OpenEngine(cols []*Collection, snapshotPath string, opts Options) (*Engine, error) {
	return core.OpenEngine(cols, snapshotPath, opts)
}

// AppendSnapshotDelta extends a snapshot file with one ingest batch as
// an appended delta section: the base sections are left untouched (no
// format break, no rewrite of the dataset payload) and restoring the
// file replays the batch exactly as Engine.Append applied it live.
// Call it with the same (collection, intervals) batch handed to
// Engine.Append; it returns the epoch recorded in the file.
func AppendSnapshotDelta(path string, col int, ivs []Interval) (int64, error) {
	return snapshot.AppendDelta(path, col, ivs)
}

// Exhaustive computes the exact top-k by in-memory enumeration — the
// correctness oracle used in tests and experiments. Exponential in the
// number of collections; use at small scale only.
func Exhaustive(q *Query, cols []*Collection, k int) ([]Result, error) {
	return join.Exhaustive(q, cols, k)
}

// Observability. Instrumentation across the serving stack (per-phase
// latency histograms, plan-cache outcome counters, standing routing
// counters, shard wire counters) records into a process-wide registry
// unconditionally — atomics only, allocation-free — and ServeDebug
// exposes it over HTTP on demand. Span tracing is opt-in per engine
// (Options.Tracer): attach a Tracer to collect per-query span trees and
// export them as JSONL or Chrome trace-event JSON (chrome://tracing,
// Perfetto).
type (
	// Tracer collects per-query span trees (Options.Tracer); nil keeps
	// tracing detached and allocation-free.
	Tracer = obs.Tracer
	// DebugServer is a running debug/metrics HTTP server (ServeDebug).
	DebugServer = obs.Server
	// MetricsRegistry is a set of named instruments renderable in
	// Prometheus text format.
	MetricsRegistry = obs.Registry
)

// NewTracer returns a span tracer to set on Options.Tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// ServeDebug starts the opt-in debug HTTP server on addr, exposing
// Prometheus-text /metrics (the process-wide instrument registry plus
// the engine/server snapshot bridges), JSON /varz (the same snapshots:
// store views, plan cache, admission, standing), /healthz (503 while a
// background mmap verification failure or a shard-cluster fault is
// poisoning admission), and /debug/pprof. engine is required; server
// may be nil (engine-only deployments, tkij-bench). Close the returned
// server with a bounded context to shut down.
func ServeDebug(addr string, engine *Engine, server *Server) (*DebugServer, error) {
	if engine == nil {
		return nil, errNilEngine
	}
	vars := []obs.Var{
		{Name: "store_views", Fn: func() any { return engine.StoreViewStats() }},
		{Name: "store", Fn: func() any { return engine.StoreStats() }},
		{Name: "plancache", Fn: func() any { return engine.PlanCacheStats() }},
	}
	if server != nil {
		vars = append(vars,
			obs.Var{Name: "admission", Fn: func() any { return server.Stats() }},
			obs.Var{Name: "standing", Fn: func() any { return server.StandingStats() }},
		)
	}
	return obs.Serve(addr, obs.ServeOptions{
		Vars:   vars,
		Health: engine.Health,
	})
}

var errNilEngine = errors.New("tkij: ServeDebug needs an engine")

// ParseMetricsText parses Prometheus text-format metrics into a
// series→value map — the validation half of the metrics endpoint
// (tkijrun -check-metrics, CI smoke tests).
func ParseMetricsText(r io.Reader) (map[string]float64, error) {
	return obs.ParseText(r)
}

// WriteTrace exports the span trees collected by t: Chrome trace-event
// JSON by default (loadable in chrome://tracing or Perfetto), or one
// JSON object per span when jsonl is set. A nil tracer writes an empty
// export.
func WriteTrace(t *Tracer, w io.Writer, jsonl bool) error {
	return obs.WriteTraceFile(t, w, jsonl)
}
