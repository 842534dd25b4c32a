package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tkij"
)

// scale holds every size of a run. The engine never reads it.
type scale struct {
	nBig, nSmall int // |Ci| of the two dataset sizes
	miniN, miniG int // |Ci| and g of the miniature correctness replay
	granules     int
	k            int
	reducers     int
	batchSize    int // intervals per Append
	// A run sets up at least setups times, and goes on until the set-ups
	// have taken setupSeconds in all; setup_s is their median. A set-up is
	// 0.4 to 0.8 s and one in ten is a tenth off, so a workload with a
	// short set-up repeats it more often.
	setups       int
	setupSeconds float64
	probeCombos  int // combinations the TightenBounds probe re-bounds
}

var (
	fullScale  = scale{nBig: 30000, nSmall: 15000, miniN: 60, miniG: 8, granules: 20, k: 100, reducers: 8, batchSize: 500, setups: 5, setupSeconds: 5.5, probeCombos: 1000}
	quickScale = scale{nBig: 3000, nSmall: 2000, miniN: 24, miniG: 6, granules: 8, k: 20, reducers: 4, batchSize: 50, setups: 1, probeCombos: 200}
)

// planCacheCost is the plan cache's retention bound in every run. The
// engine's default keeps about a dozen plans of the paper's g = 40; a
// plan at this benchmark's g costs about 17 thousand solver calls and
// selected combinations, so this keeps about a dozen of those. The six
// or seven plans of a cache-hit workload fit; the plan-miss workload's
// key set does not.
const planCacheCost = 200000

// clients is the number of closed-loop clients: each waits for its reply
// before sending the next request. Two is the sandbox's core count.
const clients = 2

// maxBatches bounds the ingest batches generated for one run: more than
// the longest window the driver allows appends.
const maxBatches = 600

// cycleQueries is the number of queries of the mix one restart cycle
// serves after the restore's first answer.
const cycleQueries = 9

// ownedMetric is an end-to-end metric only one workload measures. The
// driver's BENCHMARK.json has one list of end-to-end metrics for all
// workloads, so these are not in it: they are printed, kept in -json
// records, and held to their bound by -compare.
type ownedMetric struct {
	name, unit, better string
	bound              float64
}

// workload is one traffic mix: a fixed script of ops, sized from
// --seconds by a constant rate, so that two commits serve the same
// traffic however fast either is.
type workload struct {
	name   string
	big    bool
	shapes []string
	// distinct gives every query of the script its own plan key.
	distinct bool
	// mapped makes the script restart cycles: restore a snapshot through
	// mmap, answer the first query, serve cycleQueries more, close.
	mapped bool
	// liveIngest makes one of the two clients the appender, with four
	// standing subscriptions following its batches.
	liveIngest bool
	// shardProbe adds the two-worker join probe to the traced run.
	shardProbe bool
	// rate is the scripted queries (restart cycles when mapped) per
	// second of --seconds, batchRate the scripted Appends, tracedRate the
	// queries of one single-client pass of the traced run: what the
	// clients complete at the commit that defined the benchmark, so that a
	// script takes about --seconds there.
	rate, batchRate, tracedRate float64
	owned                       []ownedMetric
}

// BENCHMARK.json says why each workload exists.
var workloads = []*workload{
	{name: "warm_hit", big: true, shapes: []string{"Qo,m", "Qs,m", "QjB,jB"}, shardProbe: true, rate: 33, tracedRate: 16},
	{name: "cold_plan", shapes: []string{"Qo,o", "Qo,m", "Qs,f,m"}, distinct: true, rate: 10.7, tracedRate: 6},
	{name: "ingest_standing", shapes: []string{"Qo,m", "Qs,m", "QjB,jB"}, liveIngest: true, rate: 17, batchRate: 4.6, tracedRate: 8,
		owned: []ownedMetric{{"push_p50_ms", "ms", "lower", 0.25}}},
	{name: "restart_mmap", big: true, shapes: []string{"Qo,m", "Qs,m", "QjB,jB"}, mapped: true, rate: 1.55, tracedRate: 1.2,
		owned: []ownedMetric{{"restore_to_first_answer_ms", "ms", "lower", 0.25}}},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func (wl *workload) n(sc scale) int {
	if wl.big {
		return sc.nBig
	}
	return sc.nSmall
}

// scripted is rate×seconds as a whole number of at least two units of
// unit ops each.
func scripted(rate, seconds float64, unit int) int {
	n := int(rate*seconds) / unit
	return max(n, 2) * unit
}

// op is one query of the serving script.
type op struct {
	key string
	q   *tkij.Query
}

// script returns the i-th query of the workload's sequence: the shapes
// in equal shares, block by block in the seed-fixed order, and on a
// distinct-plan workload a new variant each block.
func (wl *workload) script(in *inputs, i int) op {
	block := i / len(wl.shapes)
	shape := wl.shapes[in.blocks[block%len(in.blocks)][i%len(wl.shapes)]]
	v := 0
	if wl.distinct {
		v = in.order[block%len(in.order)]
	}
	return op{key: fmt.Sprintf("%s#%d", shape, v), q: in.queries[shape][v]}
}

// sub is one live subscription with its client-side materialised top-k.
type sub struct {
	reg  standing
	s    *tkij.Subscription
	topk *tkij.SubscriptionTopK
}

const deltaTimeout = 60 * time.Second

// advance applies deltas until the materialised state reaches epoch.
func (s *sub) advance(epoch int64) error {
	for s.topk.Seq == 0 || s.topk.Epoch < epoch {
		select {
		case d, ok := <-s.s.Deltas():
			if !ok {
				return fmt.Errorf("subscription %s closed: %v", s.reg.name, s.s.Err())
			}
			if err := s.topk.Apply(d); err != nil {
				return fmt.Errorf("subscription %s: %w", s.reg.name, err)
			}
		case <-time.After(deltaTimeout):
			return fmt.Errorf("subscription %s: no delta for epoch %d within %v", s.reg.name, epoch, deltaTimeout)
		}
	}
	return nil
}

func awaitEpoch(subs []*sub, epoch int64) error {
	for _, s := range subs {
		if err := s.advance(epoch); err != nil {
			return err
		}
	}
	return nil
}

// subscribe registers the standing queries and receives each one's
// initial snapshot.
func subscribe(ctx context.Context, srv *tkij.Server, regs []standing, k int) ([]*sub, error) {
	var subs []*sub
	for _, reg := range regs {
		s, err := srv.Subscribe(ctx, reg.q, k, tkij.SubscribeOptions{Mapping: reg.mapping})
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", reg.name, err)
		}
		sb := &sub{reg: reg, s: s, topk: tkij.NewSubscriptionTopK(k)}
		if err := sb.advance(0); err != nil {
			return nil, err
		}
		subs = append(subs, sb)
	}
	return subs, nil
}

// bench is the state of one run.
type bench struct {
	wl   *workload
	sc   scale
	in   *inputs
	dir  string
	opts tkij.Options
	ctx  context.Context

	engine *tkij.Engine
	server *tkij.Server
	subs   []*sub

	timeline  []phase
	nextBatch int
	answers   []answer
	attempted int
	failed    int
	errs      errorLog
}

func newBench(wl *workload, sc scale, seed int64, dir string) (*bench, error) {
	in, err := generate(seed, wl.n(sc), maxBatches, sc.batchSize, wl.shapes)
	if err != nil {
		return nil, err
	}
	return &bench{wl: wl, sc: sc, in: in, dir: dir, ctx: context.Background(),
		opts: tkij.Options{Granules: sc.granules, K: sc.k, Reducers: sc.reducers,
			PlanCache: tkij.PlanCacheOptions{MaxCost: planCacheCost}}}, nil
}

func (b *bench) fail(err error) {
	b.failed++
	b.errs.add(err)
}

// setup is the whole of setup_s: from the generated inputs in memory to
// an engine that has its statistics, its store, the indexes and plans
// one pass of the shape mix builds, and on the live-ingest workload the
// standing subscriptions registered. It is CPU only: nothing in it
// writes a file or sleeps.
func (b *bench) setup() (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	e, err := tkij.NewEngine(b.in.cols, b.opts)
	if err != nil {
		return 0, err
	}
	if err := e.PrepareStats(); err != nil {
		return 0, err
	}
	srv := tkij.NewServer(e, tkij.ServerOptions{})
	for _, s := range b.wl.shapes {
		if _, err := srv.Submit(b.ctx, b.in.queries[s][0], nil); err != nil {
			return 0, fmt.Errorf("warm %s: %w", s, err)
		}
	}
	var subs []*sub
	if b.wl.liveIngest {
		if subs, err = subscribe(b.ctx, srv, b.in.subs, b.sc.k); err != nil {
			return 0, err
		}
	}
	took := time.Since(start)
	b.engine, b.server, b.subs = e, srv, subs
	return took, nil
}

func (b *bench) shutdown() {
	if b.server != nil {
		b.server.Close()
	}
	if b.engine != nil {
		b.engine.Close()
	}
	b.engine, b.server, b.subs = nil, nil, nil
}

// submit sends one query through the front door and keeps the answer.
func submit(ctx context.Context, srv *tkij.Server, o op) (answer, *tkij.Report, time.Duration) {
	start := time.Now()
	rep, err := srv.Submit(ctx, o.q, nil)
	took := time.Since(start)
	a := answer{key: o.key, q: o.q, err: err}
	if err == nil {
		a.epoch, a.results = rep.Epoch, rep.Results
	}
	return a, rep, took
}

// window is what the query clients of one script measured.
type window struct {
	latency []float64            // ms, every query
	byShape map[string][]float64 // ms, per shape of the mix
	wall    time.Duration
	first   int // index into bench.answers of the window's first answer
}

// record keeps one query's answer and latency.
func (b *bench) record(w *window, a answer, took time.Duration) {
	b.attempted++
	b.answers = append(b.answers, a)
	w.latency = append(w.latency, millis(took))
	w.byShape[a.q.Name] = append(w.byShape[a.q.Name], millis(took))
}

// serve sends ops [from, from+n) of the script to srv from nClients
// closed-loop clients. The clients share one cursor, so the sequence of
// queries sent is the script's whatever the interleaving.
func (b *bench) serve(w *window, srv *tkij.Server, from, n, nClients int) {
	type sample struct {
		a    answer
		took time.Duration
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		perCli = make([][]sample, nClients)
	)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				a, _, took := submit(b.ctx, srv, b.wl.script(b.in, from+i))
				perCli[c] = append(perCli[c], sample{a, took})
			}
		}(c)
	}
	wg.Wait()
	for _, ss := range perCli {
		for _, s := range ss {
			b.record(w, s.a, s.took)
		}
	}
}

// restoreOne is one restore: OpenEngine through mmap, a server over it,
// and the first query (Qo,m, nothing cached).
func (b *bench) restoreOne(first op) (*tkij.Engine, *tkij.Server, answer, time.Duration, error) {
	opts := b.opts
	opts.Mmap = true
	e, err := tkij.OpenEngine(b.in.cols, b.snapshotPath(), opts)
	if err != nil {
		return nil, nil, answer{}, 0, err
	}
	srv := tkij.NewServer(e, tkij.ServerOptions{})
	a, _, took := submit(b.ctx, srv, first)
	return e, srv, a, took, nil
}

func (b *bench) firstQuery() op { return op{key: "Qo,m#0", q: b.in.queries["Qo,m"][0]} }

// restartCycles runs the mapped workload's script: per cycle a restore
// to its first answer, cycleQueries of the mix from the two clients, and
// Close. It returns restore_to_first_answer_ms per cycle; the window's
// wall time is all of it, restores and closes included.
func (b *bench) restartCycles(w *window, cycles int) ([]float64, error) {
	var ms []float64
	start := time.Now()
	for c := 0; c < cycles; c++ {
		at := time.Now()
		e, srv, a, took, err := b.restoreOne(b.firstQuery())
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		ms = append(ms, millis(time.Since(at)))
		b.record(w, a, took)
		b.serve(w, srv, c*cycleQueries, cycleQueries, clients)
		srv.Close()
		e.Close()
	}
	w.wall = time.Since(start)
	return ms, nil
}

// ingested is what the appending client measured.
type ingested struct {
	push      []float64 // ms, Append start to the last subscription's delta
	appendMS  []float64 // ms inside Append
	intervals int
}

// perSecond is the ingest rate inside Append: a batch's intervals over
// the median time one Append took. An Append of 500 intervals takes a
// tenth of a millisecond, so a script spends a few milliseconds inside
// Append in all; the rate repeats to 0.13–0.17 between runs of the same
// code and is printed as a diagnostic, not gated.
func (g *ingested) perSecond() float64 {
	if len(g.appendMS) == 0 {
		return 0
	}
	return float64(g.intervals) / float64(len(g.appendMS)) / (median(g.appendMS) / 1000)
}

// ingest appends the next n batches one at a time, each followed by a
// wait until every subscription has that epoch's delta. It runs beside
// serve, so it counts its ops in its own result and the caller adds
// them up.
func (b *bench) ingest(n int) (g *ingested, attempted int, err error) {
	g = &ingested{}
	for i := 0; i < n; i++ {
		if b.nextBatch >= len(b.in.batches) {
			return g, attempted, fmt.Errorf("the script wants more than the %d batches generated", len(b.in.batches))
		}
		bt := b.in.batches[b.nextBatch]
		b.nextBatch++
		attempted++
		start := time.Now()
		epoch, err := b.engine.Append(bt.col, bt.ivs)
		inAppend := time.Since(start)
		if err == nil {
			err = awaitEpoch(b.subs, epoch)
		}
		if err != nil {
			return g, attempted, fmt.Errorf("append batch %d: %w", b.nextBatch-1, err)
		}
		g.push = append(g.push, millis(time.Since(start)))
		g.appendMS = append(g.appendMS, millis(inAppend))
		g.intervals += len(bt.ivs)
	}
	return g, attempted, nil
}

// checkSubscriptions compares each subscription's materialised top-k
// with a fresh Execute at the final epoch.
func (b *bench) checkSubscriptions() {
	if len(b.subs) == 0 {
		return
	}
	epoch := b.engine.Epoch()
	for _, s := range b.subs {
		b.attempted++
		if err := s.advance(epoch); err != nil {
			b.fail(err)
			continue
		}
		var (
			rep *tkij.Report
			err error
		)
		if s.reg.mapping != nil {
			rep, err = b.engine.ExecuteMapped(b.ctx, s.reg.q, s.reg.mapping)
		} else {
			rep, err = b.engine.Execute(b.ctx, s.reg.q)
		}
		switch {
		case err != nil:
			b.fail(err)
		case rep.Epoch != epoch || !equivalent(s.reg.q, s.topk.Results, rep.Results):
			b.fail(fmt.Errorf("subscription %s at epoch %d differs from a fresh execute", s.reg.name, epoch))
		}
	}
}

func (b *bench) snapshotPath() string { return filepath.Join(b.dir, b.wl.name+".snap") }

// saveFixture writes the snapshot the restart cycles restore, then
// closes the heap-built engine it came from.
func (b *bench) saveFixture() error {
	err := b.engine.SaveSnapshot(b.snapshotPath())
	b.shutdown()
	return err
}

// phase is one stretch of a run's timeline. The timed ones are the
// windows a metric is measured in.
type phase struct {
	name       string
	timed      bool
	start, end time.Time
}

// during runs fn as a named phase of the timeline.
func (b *bench) during(name string, timed bool, fn func() error) error {
	p := phase{name: name, timed: timed, start: time.Now()}
	err := fn()
	p.end = time.Now()
	b.timeline = append(b.timeline, p)
	return err
}

// runEndToEnd is the untraced run: the end-to-end metrics of one
// workload, tracing detached, load from two closed-loop clients.
func runEndToEnd(wl *workload, sc scale, seed int64, seconds float64, dir string) (*outcome, error) {
	b, err := newBench(wl, sc, seed, dir)
	if err != nil {
		return nil, err
	}
	defer b.shutdown()
	if err := b.during("miniature", false, func() error { return miniature(wl, sc, seed, dir) }); err != nil {
		return nil, err
	}

	var setups []float64
	for sum := 0.0; len(setups) < sc.setups || sum < sc.setupSeconds; sum += setups[len(setups)-1] {
		b.shutdown()
		err := b.during("setup", true, func() error {
			took, err := b.setup()
			setups = append(setups, took.Seconds())
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	// The fixture snapshot is written here: after set-up and before the
	// timed script.
	if wl.mapped {
		defer os.Remove(b.snapshotPath())
		if err := b.during("snapshot.save", false, b.saveFixture); err != nil {
			return nil, err
		}
	}

	// A collection outside every timed window, so that the script does not
	// pay for the garbage of the set-ups.
	runtime.GC()
	var (
		w        = &window{byShape: make(map[string][]float64), first: len(b.answers)}
		g        = &ingested{}
		restores []float64
	)
	err = b.during("script", true, func() error {
		switch {
		case wl.mapped:
			restores, err = b.restartCycles(w, scripted(wl.rate, seconds, 1))
			return err
		case wl.liveIngest:
			var (
				appends int
				ierr    error
				done    = make(chan struct{})
			)
			go func() {
				defer close(done)
				g, appends, ierr = b.ingest(scripted(wl.batchRate, seconds, 1))
			}()
			start := time.Now()
			b.serve(w, b.server, 0, scripted(wl.rate, seconds, len(wl.shapes)), clients-1)
			w.wall = time.Since(start)
			<-done
			b.attempted += appends
			if ierr != nil {
				b.fail(ierr)
			}
		default:
			start := time.Now()
			b.serve(w, b.server, 0, scripted(wl.rate, seconds, len(wl.shapes)), clients)
			w.wall = time.Since(start)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var served int
	b.during("verify", false, func() error {
		b.checkSubscriptions()
		ok := verify(b.answers, sc.k, b.in.cols, &b.errs)
		b.failed += len(ok) - count(ok)
		served = count(ok[w.first : w.first+len(w.latency)])
		return nil
	})

	out := newOutcome(b)
	out.add("query_p50_ms", "ms", median(w.latency), len(w.latency))
	out.add("queries_per_s", "1/s", float64(served)/w.wall.Seconds(), len(w.latency))
	out.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	out.add("setup_s", "s", median(setups), len(setups))

	if wl.liveIngest {
		out.note("push_p50_ms", "ms", median(g.push), len(g.push))
		out.note("client.append_p50_ms", "ms", median(g.appendMS), len(g.appendMS))
		out.note("client.append_intervals_per_s", "1/s", g.perSecond(), len(g.appendMS))
	}
	if wl.mapped {
		out.note("restore_to_first_answer_ms", "ms", median(restores), len(restores))
	}
	out.note("client.query_p90_ms", "ms", quantile(w.latency, 0.9), len(w.latency))
	for s, ms := range w.byShape {
		out.note("client."+s+".p50_ms", "ms", median(ms), len(ms))
	}
	for _, p := range b.timeline {
		if p.name != "setup" {
			out.note("phase."+p.name+"_s", "s", p.end.Sub(p.start).Seconds(), 1)
		}
	}
	return out.close(b, seed, false), nil
}
