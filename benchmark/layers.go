package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tkij"
	"tkij/internal/distribute"
	"tkij/internal/mapreduce"
	"tkij/internal/mmapstore"
	"tkij/internal/rtree"
	"tkij/internal/snapshot"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// The traced run: one client replays a fixed op script twice, the second
// time with the harness wrapping every front-door call in a span and
// laying the phases its Report returned under it, and each module a
// Report does not time is called directly — its public functions, on the
// workload's own data — with a span around the call. A workload runs the
// layers its script exercises; the others it reports as 0 from no
// samples. This file is the only one that imports internal packages.

// appendEvery is the number of queries between two Appends of the
// single client on the live-ingest workload.
const appendEvery = 3

// exactLayers are the per-layer metrics that are counts of a
// single-client fixed script and must repeat exactly for a seed.
var exactLayers = []string{
	"store.trees_built", "topbuckets.combos_enumerated", "topbuckets.combos_selected",
	"topbuckets.pruned_fraction", "solver.nodes", "distribute.result_imbalance",
	"plancache.hit_share", "plancache.miss_share", "plancache.revalidated_share", "plancache.evictions",
	"store.compactions", "store.delta_trees_built", "snapshot.bytes_per_interval",
	"standing.promote_share", "standing.push_share", "standing.resync_share", "standing.probed_combos",
	"shard.shipped_records",
}

// counters is the engine's and server's cumulative state that the
// serving layers report as differences.
type counters struct {
	hits, misses, revalidations, evictions             int64 // plan cache
	leaders, followers                                 int64 // admission
	pushes, promotions, resyncs, probed, dropped       int64 // standing
	treesBuilt, deltaTreesBuilt, compactions, viewsMax int64 // store
}

func countersOf(e *tkij.Engine, srv *tkij.Server) counters {
	pc, ad, sd, st := e.PlanCacheStats(), srv.Stats(), srv.StandingStats(), e.StoreStats()
	return counters{pc.Hits, pc.Misses, pc.Revalidations, pc.Evictions,
		ad.PlanLeaders, ad.PlanFollowers,
		sd.Pushes, sd.Promotions, sd.Resyncs, sd.ProbedCombos, sd.DroppedDeltas,
		st.TreesBuilt, st.DeltaTreesBuilt, st.Compactions, int64(e.StoreViewStats().HighWater)}
}

// plus adds sign×o, counter by counter; the high-water mark of live
// views is a maximum, not a sum.
func (c counters) plus(sign int64, o counters) counters {
	return counters{c.hits + sign*o.hits, c.misses + sign*o.misses, c.revalidations + sign*o.revalidations, c.evictions + sign*o.evictions,
		c.leaders + sign*o.leaders, c.followers + sign*o.followers,
		c.pushes + sign*o.pushes, c.promotions + sign*o.promotions, c.resyncs + sign*o.resyncs, c.probed + sign*o.probed, c.dropped + sign*o.dropped,
		c.treesBuilt + sign*o.treesBuilt, c.deltaTreesBuilt + sign*o.deltaTreesBuilt, c.compactions + sign*o.compactions, max(c.viewsMax, o.viewsMax)}
}

// layerRun is the traced run's state on top of the bench.
type layerRun struct {
	*bench
	tr       *tracer
	out      *outcome
	matrices []*stats.Matrix // of the base collections, from offlineLayers
	total    counters        // over both passes

	reports  []*tkij.Report // traced pass
	probes   []*tkij.Report // plan-cache probes after the passes
	traced   []float64      // ms, traced pass query latencies
	untraced []float64      // ms, untraced pass query latencies
	allocs   []float64
	bytes    []float64
	appendMS []float64
	pushMS   []float64
}

func runTraced(wl *workload, sc scale, seed int64, seconds float64, dir string) (*outcome, error) {
	if err := miniature(wl, sc, seed, dir); err != nil {
		return nil, err
	}
	b, err := newBench(wl, sc, seed, dir)
	if err != nil {
		return nil, err
	}
	defer b.shutdown()
	r := &layerRun{bench: b, tr: newTracer(), out: newOutcome(b)}

	if err := r.offlineLayers(); err != nil {
		return nil, err
	}
	if _, err := b.setup(); err != nil {
		return nil, err
	}
	r.out.add("store.trees_built", "count", float64(b.engine.StoreStats().TreesBuilt), 1)

	// Two passes over the same ops of the script, half of --seconds each:
	// untraced, then traced, so that the two differ in the tracing only.
	if wl.mapped {
		defer os.Remove(b.snapshotPath())
		if err := b.saveFixture(); err != nil {
			return nil, err
		}
		cycles := scripted(wl.tracedRate, seconds/2, 1)
		for _, traced := range []bool{false, true} {
			if err := r.cyclePass(cycles, traced); err != nil {
				return nil, err
			}
		}
	} else {
		ops := scripted(wl.tracedRate, seconds/2, len(wl.shapes))
		before := countersOf(b.engine, b.server)
		r.pass(ops, false)
		r.pass(ops, true)
		r.total = countersOf(b.engine, b.server).plus(-1, before)
		if err := r.planCacheProbes(); err != nil {
			return nil, err
		}
	}
	r.servingLayers()
	if err := r.planLayers(); err != nil {
		return nil, err
	}
	if err := r.shardLayers(); err != nil {
		return nil, err
	}

	b.checkSubscriptions()
	ok := verify(b.answers, sc.k, b.in.cols, &b.errs)
	b.failed += len(ok) - count(ok)

	r.out.add("trace.overhead_share", "ratio", ratio(median(r.traced), median(r.untraced)), len(r.traced))
	r.coverage()
	if err := r.tr.write(filepath.Join(dir, "trace."+wl.name+".jsonl")); err != nil {
		return nil, err
	}
	return r.out.close(b, seed, true), nil
}

// coverage holds the durations the Reports returned against the
// harness's own clock, unclipped: the queue wait and the execute against
// the span the harness timed around Submit, and the four phases against
// the execute. The first is trace.self_time_coverage, and the run fails
// if it is off by more than 5 % or if the phases over-run the execute by
// as much: spans laid out from such Reports would not add up to the
// op's wall time. Time of the execute outside its phases is no failure;
// it is core.execute_self_ms.
func (r *layerRun) coverage() {
	var wall, reported, total, phases float64
	for i, rep := range r.reports {
		wall += r.traced[i]
		reported += millis(rep.QueueWait + rep.Total)
		total += millis(rep.Total)
		phases += millis(rep.TopBucketsTime + rep.DistributeTime + rep.JoinTime + rep.MergeTime)
	}
	cov := ratio(reported, wall)
	r.out.add("trace.self_time_coverage", "ratio", cov, len(r.reports))
	if cov < 0.95 || cov > 1.05 {
		r.fail(fmt.Errorf("queue wait and execute sum to %.3f of the Submit calls' wall time", cov))
	}
	if over := ratio(phases, total); over > 1.05 {
		r.fail(fmt.Errorf("the phases sum to %.3f of the executes they ran in", over))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed runs fn inside a harness span of a new op and returns its length
// in ms.
func (r *layerRun) timed(name string, fn func() error) (float64, error) {
	id := r.tr.op(name)
	err := fn()
	return millis(r.tr.end(id)), err
}

// probeSweeps is the number of passes over all buckets one index probe
// makes; a single pass is a tenth of a millisecond.
const probeSweeps = 50

// sweepBoxes visits every bucket of every collection, sweeps times over,
// with a probe box: the first quarter of the bucket's start granule, any
// end. It returns the number of visits.
func sweepBoxes(ms []*stats.Matrix, sweeps int, visit func(col, l, lp int, box rtree.Rect)) (n int) {
	for ; sweeps > 0; sweeps-- {
		for c, m := range ms {
			for _, bk := range m.Buckets() {
				lo, hi := m.Gran.Bounds(bk.StartG)
				box := rtree.Everything()
				box.MinX, box.MaxX = lo, lo+(hi-lo)/4
				visit(c, bk.StartG, bk.EndG, box)
				n++
			}
		}
	}
	return n
}

// offlineLayers calls the offline modules the way the engine's
// preparation does — statistics, store build, index build — then probes
// the indexes; on the mapped workload the snapshot codec, the mapped
// reader and the flat index as well; on the live-ingest workload the
// store's share of an Append. All of it on scratch copies that the
// serving engine never sees.
func (r *layerRun) offlineLayers() error {
	var (
		b   = r.bench
		ms  []*stats.Matrix
		st  *store.Store
		err error
	)
	collect, err := r.timed("stats.collect", func() error {
		ms, _, err = stats.Collect(b.in.cols, b.sc.granules, mapreduce.Config{Reducers: len(b.in.cols)})
		return err
	})
	if err != nil {
		return err
	}
	r.matrices = ms
	build, err := r.timed("store.build", func() error {
		st, err = store.Build(b.in.cols, ms)
		return err
	})
	if err != nil {
		return err
	}
	defer st.Close()
	index, _ := r.timed("store.index_build", func() error {
		sweepBoxes(ms, 1, func(c, l, lp int, _ rtree.Rect) { st.Col(c).BucketTree(l, lp) })
		return nil
	})
	sink := func(int32) bool { return true }
	var probes int
	search, _ := r.timed("rtree.search", func() error {
		probes = sweepBoxes(ms, probeSweeps, func(c, l, lp int, box rtree.Rect) {
			st.Col(c).BucketTree(l, lp).Search(box, func(rtree.Point) bool { return true })
		})
		return nil
	})
	probe, _ := r.timed("store.probe_rtree", func() error {
		sweepBoxes(ms, probeSweeps, func(c, l, lp int, box rtree.Rect) { st.Col(c).SearchBucket(l, lp, box, sink) })
		return nil
	})
	o := r.out
	o.add("stats.collect_ms", "ms", collect, 1)
	o.add("store.build_ms", "ms", build, 1)
	o.add("store.index_build_ms", "ms", index, 1)
	o.add("rtree.search_ns", "ns", search*1e6/float64(probes), probes)
	o.add("store.probe_rtree_us", "us", probe*1e3/float64(probes), probes)

	var snap snapshotLayers
	if b.wl.mapped {
		if snap, err = r.snapshotLayers(st, ms, probes); err != nil {
			return err
		}
	}
	o.add("store.probe_flat_us", "us", snap.flatUS, snap.n*probes)
	o.add("snapshot.encode_ms", "ms", snap.encode, snap.n)
	o.add("snapshot.save_ms", "ms", snap.save, snap.n)
	o.add("snapshot.decode_ms", "ms", snap.decode, snap.n)
	o.add("snapshot.bytes_per_interval", "B", snap.bytesPer, snap.n)
	o.add("mmapstore.open_ms", "ms", snap.open, snap.n)
	o.add("mmapstore.verify_ms", "ms", snap.verify, snap.n)

	// Appends into the scratch store: the store's share of an Append.
	var appendMS []float64
	if b.wl.liveIngest {
		for _, bt := range b.in.batches[len(b.in.batches)-3:] {
			ms, err := r.timed("store.append", func() error {
				_, err := st.Append(bt.col, bt.ivs)
				return err
			})
			if err != nil {
				return err
			}
			appendMS = append(appendMS, ms)
		}
	}
	o.add("store.append_ms", "ms", median(appendMS), len(appendMS))
	return nil
}

// snapshotLayers is what the snapshot codec, the mapped reader and the
// flat index measured; n is 1, or 0 on a workload that restores nothing.
type snapshotLayers struct {
	encode, save, decode, open, verify, bytesPer, flatUS float64
	n                                                    int
}

func (r *layerRun) snapshotLayers(st *store.Store, ms []*stats.Matrix, probes int) (snapshotLayers, error) {
	var (
		b   = r.bench
		l   = snapshotLayers{n: 1}
		img []byte
		err error
	)
	l.encode, err = r.timed("snapshot.encode", func() error {
		img, err = snapshot.Encode(st, ms)
		return err
	})
	if err != nil {
		return l, err
	}
	l.bytesPer = float64(len(img)) / float64(3*b.wl.n(b.sc))
	path := filepath.Join(b.dir, b.wl.name+".layers.snap")
	defer os.Remove(path)
	l.save, err = r.timed("snapshot.save", func() error { return snapshot.WriteImage(path, img) })
	if err != nil {
		return l, err
	}
	l.decode, err = r.timed("snapshot.decode", func() error {
		dst, _, err := snapshot.Decode(img)
		if err == nil {
			dst.Close()
		}
		return err
	})
	if err != nil {
		return l, err
	}
	openSpan := r.tr.op("mmapstore.open")
	rd, err := mmapstore.Open(path)
	l.open = millis(r.tr.end(openSpan))
	if err != nil {
		return l, err
	}
	l.verify, err = r.timed("mmapstore.verify", rd.Verify)
	rd.Close()
	if err != nil {
		return l, err
	}

	// The flat index is probed on a store opened the way a restore opens
	// it. The first sweep builds the per-bucket indexes and is not timed.
	opts := b.opts
	opts.Mmap = true
	me, err := tkij.OpenEngine(b.in.cols, path, opts)
	if err != nil {
		return l, err
	}
	defer me.Close()
	mst := me.Store()
	sink := func(int32) bool { return true }
	sweepBoxes(ms, 1, func(c, l, lp int, box rtree.Rect) { mst.Col(c).SearchBucket(l, lp, box, sink) })
	flat, _ := r.timed("store.probe_flat", func() error {
		sweepBoxes(ms, probeSweeps, func(c, l, lp int, box rtree.Rect) { mst.Col(c).SearchBucket(l, lp, box, sink) })
		return nil
	})
	l.flatUS = flat * 1e3 / float64(probes)
	return l, nil
}

// spanQuery submits one query inside a span — a new op's root, or under
// parent — and lays the Report's phases under it: queue wait, then the
// execute with planning, join and merge end to end, and inside the join
// the busiest reducer. It returns the span's length, the harness's own
// measure of the call.
func (r *layerRun) spanQuery(srv *tkij.Server, o op, parent int) (answer, *tkij.Report, time.Duration) {
	var id int
	if parent == 0 {
		id = r.tr.op("op.query")
	} else {
		id = r.tr.begin("op.query", parent)
	}
	a, rep, _ := submit(r.ctx, srv, o)
	wall := r.tr.end(id)
	if rep == nil {
		return a, nil, wall
	}
	start := r.tr.spans[id-1].Start
	_, at := r.tr.lay("admission.queue_wait", id, start, rep.QueueWait)
	exec, _ := r.tr.lay("core.execute", id, at, rep.Total)
	plan, next := r.tr.lay("plancache.plan", exec, at, rep.TopBucketsTime+rep.DistributeTime)
	if !rep.PlanCacheHit && !rep.PlanRevalidated {
		_, mid := r.tr.lay("topbuckets.run", plan, at, rep.TopBucketsTime)
		r.tr.lay("distribute.assign", plan, mid, rep.DistributeTime)
	}
	join, next2 := r.tr.lay("join.join", exec, next, rep.JoinTime)
	if rep.Join != nil && rep.Join.JoinMetrics != nil {
		r.tr.lay("join.reduce_max", join, next, rep.Join.JoinMetrics.MaxReduceDuration())
	}
	r.tr.lay("join.merge", exec, next2, rep.MergeTime)
	return a, rep, wall
}

// tracedQuery runs one query of the traced pass and keeps its answer,
// its Report and what it allocated.
func (r *layerRun) tracedQuery(srv *tkij.Server, o op, parent int) {
	b := r.bench
	b.attempted++
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a, rep, wall := r.spanQuery(srv, o, parent)
	runtime.ReadMemStats(&m1)
	b.answers = append(b.answers, a)
	if rep == nil {
		return
	}
	r.reports = append(r.reports, rep)
	r.traced = append(r.traced, millis(wall))
	r.allocs = append(r.allocs, float64(m1.Mallocs-m0.Mallocs))
	r.bytes = append(r.bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
}

// untracedQuery is the same op with no span around it.
func (r *layerRun) untracedQuery(srv *tkij.Server, o op) {
	r.attempted++
	a, _, took := submit(r.ctx, srv, o)
	r.answers = append(r.answers, a)
	r.untraced = append(r.untraced, millis(took))
}

// tracedAppend is one Append followed by the wait for every
// subscription's delta, with a span around each half.
func (r *layerRun) tracedAppend() {
	b := r.bench
	bt := b.in.batches[b.nextBatch]
	b.nextBatch++
	b.attempted++
	root := r.tr.op("op.append")
	ap := r.tr.begin("core.append", root)
	epoch, err := b.engine.Append(bt.col, bt.ivs)
	r.appendMS = append(r.appendMS, millis(r.tr.end(ap)))
	if err == nil {
		push := r.tr.begin("standing.push_cycle", root)
		err = awaitEpoch(b.subs, epoch)
		r.pushMS = append(r.pushMS, millis(r.tr.end(push)))
	}
	r.tr.end(root)
	if err != nil {
		b.fail(fmt.Errorf("append batch %d: %w", b.nextBatch-1, err))
	}
}

// pass replays ops [0, ops) of the script with one client. On the
// live-ingest workload an Append goes in after every appendEvery
// queries, in both passes.
func (r *layerRun) pass(ops int, traced bool) {
	b := r.bench
	for i := 0; i < ops; i++ {
		o := b.wl.script(b.in, i)
		if traced {
			r.tracedQuery(b.server, o, 0)
		} else {
			r.untracedQuery(b.server, o)
		}
		if !b.wl.liveIngest || i%appendEvery != appendEvery-1 {
			continue
		}
		if traced {
			r.tracedAppend()
		} else if _, n, err := b.ingest(1); err != nil {
			b.fail(err)
		} else {
			b.attempted += n
		}
	}
}

// cyclePass is pass on the mapped workload: restart cycles as the
// untraced run makes them, from one client, every cycle's counters
// added up before its engine closes.
func (r *layerRun) cyclePass(cycles int, traced bool) error {
	b := r.bench
	opts := b.opts
	opts.Mmap = true
	for c := 0; c < cycles; c++ {
		var root, open int
		if traced {
			root = r.tr.op("op.restore")
			open = r.tr.begin("core.open_engine", root)
		}
		e, err := tkij.OpenEngine(b.in.cols, b.snapshotPath(), opts)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		srv := tkij.NewServer(e, tkij.ServerOptions{})
		if traced {
			r.tr.end(open)
			r.tracedQuery(srv, b.firstQuery(), root)
			r.tr.end(root)
		} else {
			r.untracedQuery(srv, b.firstQuery())
		}
		for i := c * cycleQueries; i < (c+1)*cycleQueries; i++ {
			if traced {
				r.tracedQuery(srv, b.wl.script(b.in, i), 0)
			} else {
				r.untracedQuery(srv, b.wl.script(b.in, i))
			}
		}
		r.total = r.total.plus(1, countersOf(e, srv))
		srv.Close()
		e.Close()
	}
	return nil
}

// planCacheProbes executes each shape of the mix twice on the engine
// itself after the passes. Under the server a batch's leader plans
// before its members execute, so a member's Report always says hit and
// the planning is inside its queue wait; a direct Execute reports what
// the plan cache did. After ingest the first execute finds its plan one
// or more epochs old and revalidates or replans it; the second is a hit.
func (r *layerRun) planCacheProbes() error {
	b := r.bench
	for _, s := range b.wl.shapes {
		for i := 0; i < 2; i++ {
			b.attempted++
			rep, err := b.engine.Execute(b.ctx, b.in.queries[s][0])
			if err != nil {
				return err
			}
			b.answers = append(b.answers, answer{key: "probe " + s, q: rep.Query, epoch: rep.Epoch, results: rep.Results})
			r.probes = append(r.probes, rep)
		}
	}
	return nil
}

// servingLayers turns the traced pass's Reports, spans and the counters
// of both passes into the serving layers' metrics.
func (r *layerRun) servingLayers() {
	var (
		hitUS, revalMS, joinMS, mergeMS, waitMS, batch, visited, scored, imbalance []float64
		skipped, assigned                                                          float64
	)
	for _, rep := range r.probes {
		switch {
		case rep.PlanCacheHit:
			hitUS = append(hitUS, float64(rep.TopBucketsTime)/1e3)
		case rep.PlanRevalidated:
			revalMS = append(revalMS, millis(rep.TopBucketsTime))
		}
	}
	for _, rep := range r.reports {
		joinMS = append(joinMS, millis(rep.JoinTime))
		mergeMS = append(mergeMS, millis(rep.MergeTime))
		waitMS = append(waitMS, millis(rep.QueueWait))
		batch = append(batch, float64(rep.BatchSize))
		imbalance = append(imbalance, rep.Imbalance())
		var v, s float64
		for _, l := range rep.Join.Locals {
			v += float64(l.TuplesExamined)
			s += float64(l.ResultsReturned)
			skipped += float64(l.CombosSkipped)
			assigned += float64(l.CombosAssigned)
		}
		visited = append(visited, v)
		scored = append(scored, s)
	}
	self := r.tr.selfTimes()
	n := len(joinMS)
	o, t := r.out, r.total
	// The plan cache's own counters give the outcome mix. Every query is
	// two Plan calls — its batch leader's, whose outcome is the one that
	// matters, and its own, always a hit — so the queries' own lookups
	// come off the hits.
	queries := float64(len(r.untraced) + len(r.traced))
	hits := float64(t.hits) - queries
	plans := hits + float64(t.misses+t.revalidations)
	o.add("plancache.hit_lookup_us", "us", median(hitUS), len(hitUS))
	o.add("plancache.revalidate_ms", "ms", median(revalMS), len(revalMS))
	o.add("plancache.hit_share", "ratio", ratio(hits, plans), int(plans))
	o.add("plancache.miss_share", "ratio", ratio(float64(t.misses), plans), int(plans))
	o.add("plancache.revalidated_share", "ratio", ratio(float64(t.revalidations), plans), int(plans))
	o.add("plancache.evictions", "count", float64(t.evictions), 1)
	o.add("join.join_ms", "ms", median(joinMS), n)
	o.add("join.merge_ms", "ms", median(mergeMS), n)
	o.add("join.candidates_visited", "count", mean(visited), n)
	o.add("join.results_scored", "count", mean(scored), n)
	o.add("join.early_terminated_share", "ratio", ratio(skipped, assigned), n)
	o.add("join.reducer_imbalance", "ratio", mean(imbalance), n)
	o.add("join.allocs_per_query", "count", mean(r.allocs), len(r.allocs))
	o.add("join.bytes_per_query", "B", mean(r.bytes), len(r.bytes))
	o.add("mapreduce.overhead_ms", "ms", median(self["join.join"]), len(self["join.join"]))
	o.add("admission.queue_wait_ms", "ms", median(waitMS), n)
	o.add("admission.batch_size_mean", "count", mean(batch), n)
	o.add("admission.leader_share", "ratio", ratio(float64(t.leaders), float64(t.leaders+t.followers)), n)
	o.add("core.execute_self_ms", "ms", median(self["core.execute"]), len(self["core.execute"]))

	o.add("core.append_ms", "ms", median(r.appendMS), len(r.appendMS))
	o.add("store.compactions", "count", float64(t.compactions), 1)
	o.add("store.delta_trees_built", "count", float64(t.deltaTreesBuilt), 1)
	o.add("store.live_views_high_water", "count", float64(t.viewsMax), 1)
	routed := float64(t.pushes + t.promotions + t.resyncs)
	o.add("standing.push_cycle_ms", "ms", median(r.pushMS), len(r.pushMS))
	o.add("standing.promote_share", "ratio", ratio(float64(t.promotions), routed), int(routed))
	o.add("standing.push_share", "ratio", ratio(float64(t.pushes), routed), int(routed))
	o.add("standing.resync_share", "ratio", ratio(float64(t.resyncs), routed), int(routed))
	// Per Append, not per push cycle: the manager may wake once more than
	// there were Appends.
	o.add("standing.probed_combos", "count", ratio(float64(t.probed), float64(r.nextBatch)), r.nextBatch)
	o.add("standing.dropped_deltas", "count", float64(t.dropped), 1)
}

// planLayers calls the planning modules directly, once per shape of the
// mix, on the base collections' matrices: TopBuckets, the tight-bound
// refinement of the first selected combinations, and the distribution.
func (r *layerRun) planLayers() error {
	var (
		b                                                            = r.bench
		runMS, tightMS, assignMS, total, selected, pruned, nodes, im []float64
		pairNS, pairCalls                                            float64
	)
	for _, s := range b.wl.shapes {
		q := b.in.queries[s][0]
		vms := make([]*stats.Matrix, q.NumVertices)
		for v := range vms {
			vms[v] = r.matrices[v].WithCol(v)
		}
		var (
			tb  *topbuckets.Result
			err error
		)
		took, err := r.timed("topbuckets.run", func() error {
			tb, err = topbuckets.Run(q, vms, b.sc.k, topbuckets.Options{})
			return err
		})
		if err != nil {
			return err
		}
		runMS = append(runMS, took)
		total = append(total, tb.TotalCombos)
		selected = append(selected, float64(len(tb.Selected)))
		pruned = append(pruned, tb.PrunedFraction())
		pairNS += float64(tb.PairPhase)
		pairCalls += float64(tb.PairSolverCalls)

		prefix := append([]topbuckets.Combo(nil), tb.Selected[:min(b.sc.probeCombos, len(tb.Selected))]...)
		var opened int
		took, _ = r.timed("topbuckets.tighten", func() error {
			opened = topbuckets.TightenBounds(q, vms, prefix, topbuckets.Options{})
			return nil
		})
		tightMS = append(tightMS, took)
		nodes = append(nodes, float64(opened))

		var assign *distribute.Assignment
		took, err = r.timed("distribute.assign", func() error {
			assign, err = distribute.Assign(distribute.AlgDTB, tb.Selected, b.sc.reducers)
			return err
		})
		if err != nil {
			return err
		}
		assignMS = append(assignMS, took)
		im = append(im, assign.ResultImbalance())
	}
	o, n := r.out, len(runMS)
	o.add("topbuckets.run_ms", "ms", median(runMS), n)
	o.add("topbuckets.tighten_ms", "ms", median(tightMS), n)
	o.add("topbuckets.combos_enumerated", "count", mean(total), n)
	o.add("topbuckets.combos_selected", "count", mean(selected), n)
	o.add("topbuckets.pruned_fraction", "ratio", mean(pruned), n)
	o.add("solver.pair_bounds_ns", "ns", ratio(pairNS, pairCalls), int(pairCalls))
	o.add("solver.nodes", "count", mean(nodes), n)
	o.add("distribute.assign_ms", "ms", median(assignMS), n)
	o.add("distribute.result_imbalance", "ratio", mean(im), n)
	return nil
}

// shardLayers runs the mix's join phase through two in-process shard
// workers and beside it on the serving engine, on the workload that has
// the shard probe. There is no sharded end-to-end workload; these
// numbers exist in the traced run only.
func (r *layerRun) shardLayers() error {
	b := r.bench
	var sharded, local, shipped, frames []float64
	if b.wl.shardProbe {
		opts := b.opts
		opts.Shards = 2
		e, err := tkij.NewEngine(b.in.cols, opts)
		if err != nil {
			return err
		}
		defer e.Close()
		for _, s := range b.wl.shapes {
			q := b.in.queries[s][0]
			for i := 0; i < 2; i++ { // the first execute plans and builds; the second is measured
				var rep *tkij.Report
				_, err := r.timed("shard.execute", func() error {
					rep, err = e.Execute(b.ctx, q)
					return err
				})
				if err != nil {
					return err
				}
				if i == 1 {
					sharded = append(sharded, millis(rep.JoinTime))
					shipped = append(shipped, rep.ShardShippedRecords)
					frames = append(frames, float64(rep.ShardFloorFrames))
				}
			}
			rep, err := b.engine.Execute(b.ctx, q)
			if err != nil {
				return err
			}
			local = append(local, millis(rep.JoinTime))
		}
	}
	o, n := r.out, len(sharded)
	o.add("shard.scatter_gather_ms", "ms", median(sharded), n)
	o.add("shard.shipped_records", "count", mean(shipped), n)
	o.add("shard.floor_frames", "count", mean(frames), n)
	o.add("shard.overhead_vs_local", "ratio", ratio(median(sharded), median(local)), n)
	return nil
}
