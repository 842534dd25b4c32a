package join

import (
	"fmt"
	"math"
	"time"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/rtree"
	"tkij/internal/scoring"
	"tkij/internal/topbuckets"
)

// Source supplies one query vertex's bucket data to the local join.
// store.ColView (an epoch-pinned view) implements it for the
// dataset-resident serving path. Implementations shared across reduce
// tasks must be safe for concurrent use.
type Source interface {
	// Bucket resolves bucket (startG, endG) to a handle, or nil when the
	// bucket is absent. The reducer resolves each bucket of a
	// combination once and then probes the handle per partial tuple, so
	// whatever a lookup costs is paid per combination.
	Bucket(startG, endG int) Bucket
}

// Bucket is a resolved bucket: its intervals and an index probe over
// exactly those intervals. A bucket of the store may be covered by a
// sealed index plus a small delta tree over appended intervals, which is
// why the handle exposes a search rather than one tree. It is the same
// type as store.Bucket, declared here as well so that neither package
// imports the other; the compiler holds the two in step wherever a
// store.ColView is used as a Source. A handle is valid only while the
// store.View (core.Pin) its Source was taken from is held.
type Bucket = interface {
	// Items returns the bucket's intervals. The slice is read-only and
	// stable for the handle's lifetime.
	Items() []interval.Interval
	// Search invokes fn with the index (into Items) of every interval
	// whose (start, end) point lies inside box. fn returning false stops
	// the probe.
	Search(box rtree.Rect, fn func(ref int32) bool)
}

// ItemsOf returns the intervals of src's bucket (startG, endG), nil when
// the bucket is absent.
func ItemsOf(src Source, startG, endG int) []interval.Interval {
	if b := src.Bucket(startG, endG); b != nil {
		return b.Items()
	}
	return nil
}

// LocalOptions tunes the per-reducer join. The zero value is the paper's
// configuration: R-tree candidate access and threshold pruning enabled.
type LocalOptions struct {
	// DisableIndex replaces R-tree probes with full bucket scans
	// (ablation: BenchmarkAblationLocalIndex).
	DisableIndex bool
	// DisablePruning turns off threshold-based pruning, the score floor
	// (so also the probe ladder, whose rungs are floors) and combination
	// early termination (ablation: BenchmarkAblationPruning).
	DisablePruning bool
}

// floorEps is subtracted from score floors before strict comparisons so
// results scoring exactly the floor survive. Integer endpoints quantize
// scores at 1/ρ steps, orders of magnitude above this epsilon.
const floorEps = 1e-9

// probeLadder is the descending sequence of optimistic score floors a
// reducer tries before it falls back to the shared floor. The paper's
// reducers query the R-tree "for an interval x_i and a score value v"
// (§4); the ladder supplies v. A rung is the reducer's one pass with its
// own floor set to v, so candidates are boxed and pruned at
// max(v, shared floor) from the first probe on instead of at a k-th
// score discovered gradually — avoiding exhaustive enumeration when
// high-scoring results are sparse. The rung's output is the answer when
// its top-k fills (every local top-k result scores at least v) or when
// the shared floor reached v during the pass (nothing below v can be in
// the global top-k); otherwise it is dropped and the next rung runs.
var probeLadder = []float64{0.95, 0.75, 0.5, 0.25}

// LocalStats describes one reducer's local join work.
type LocalStats struct {
	Reducer int
	// CombosAssigned is the length of a split reducer's list, and for
	// the local pass the combinations it read from the plan — a
	// combination no pass reads is never built. CombosProcessed counts
	// those the answering pass joined, and CombosSkipped those it was
	// handed but did not join because their UB could not beat its
	// threshold: the rest of a split reducer's list, and at most the one
	// combination that ended a pass over a plan.
	CombosAssigned  int
	CombosProcessed int
	CombosSkipped   int
	// TuplesExamined counts candidate extensions scored.
	TuplesExamined int64
	// PartialsPruned counts partial tuples cut by the threshold test.
	PartialsPruned int64
	// ResultsReturned is the size of the local top-k list.
	ResultsReturned int
	// ProbeRounds counts the probe-ladder rungs run. TuplesExamined and
	// PartialsPruned include the work of rungs whose output was dropped;
	// CombosProcessed and CombosSkipped describe the answering pass only.
	ProbeRounds int
	// FloorUsed is the effective floor of the pass that produced the
	// answer when it ended: the higher of its rung value (0 after the
	// ladder) and the shared floor.
	FloorUsed float64
	// MinScore is the lowest score among returned results (the k-th
	// local result when the reducer filled its list — Figure 8c). It is
	// 0 when the reducer returned no results — never NaN, so reports
	// survive encoding/json, which rejects NaN; check ResultsReturned
	// before reading it.
	MinScore float64
	// BucketRefsRouted is the number of bucket references a runner's
	// split routes to this reducer: the distinct buckets its combinations
	// touch (intervals stay resident; only references are routed). Filled
	// by the runner that split the combinations, like RoutedIntervals;
	// zero for the local pass.
	BucketRefsRouted int
	// RoutedIntervals is the resident-interval weight of those
	// references (Σ|b|) — this reducer's share of the replication cost
	// DTB minimizes.
	RoutedIntervals float64
	// SharedFloorFinal is the shared score floor when this reducer
	// finished (0 when pruning is disabled or no floor was established).
	SharedFloorFinal float64
	Duration         time.Duration
}

// plan precomputes the vertex binding order and per-level edge sets for
// one query: a BFS over the (weakly connected) query graph from vertex
// 0, so every level after the first has at least one edge into the
// already-bound prefix.
type plan struct {
	q *query.Query
	// order is the vertex binding sequence.
	order []int
	// bindEdges[pos] lists the edge indexes that become fully bound when
	// order[pos] is bound.
	bindEdges [][]int
	// primary[pos] is the edge (into the bound prefix) used for
	// candidate generation at pos; -1 at position 0.
	primary []int
	// boundBefore[pos] is the number of edges fully bound before pos.
	boundBefore []int
	// avgAgg is set when the aggregator is the normalized sum, enabling
	// threshold inversion for index boxes.
	avgAgg bool
	// boxes[pos] is the compiled probe-box derivation of the primary edge
	// at pos (see candidateBox); unused at position 0.
	boxes []boxLevel
}

// boxLevel is what candidateBox needs of one plan position, derived once
// per query from the primary edge's predicate instead of once per probe.
type boxLevel struct {
	// fixed is the already-bound vertex at the primary edge's other end.
	fixed int
	// unsat marks a predicate with a term of unknown kind: no difference
	// is known to reach any positive score, so the box is empty.
	unsat bool
	// terms are the predicate's terms that constrain exactly one endpoint
	// of the free vertex, in predicate order. Terms touching both or
	// neither endpoint narrow nothing and are dropped here; the exact
	// filter handles them.
	terms []boxTerm
}

// boxTerm is one box-narrowing term: kind(d) with d = c·f + rest, where f
// is the free vertex's constrained endpoint and rest = fs·start + fe·end
// + k over the fixed interval.
type boxTerm struct {
	kind      scoring.CompKind
	p         scoring.Params
	onEnd     bool // f is the free vertex's end (box Y axis), else its start
	c         float64
	fs, fe, k float64
}

// compileBoxes fills p.boxes.
func (p *plan) compileBoxes() {
	p.boxes = make([]boxLevel, len(p.order))
	for pos := 1; pos < len(p.order); pos++ {
		e := p.q.Edges[p.primary[pos]]
		lv := &p.boxes[pos]
		// The free vertex is the one being bound at pos; which side of
		// the edge it sits on picks the coefficient columns.
		free, fixed := [2]scoring.Endpoint{scoring.XStart, scoring.XEnd}, [2]scoring.Endpoint{scoring.YStart, scoring.YEnd}
		lv.fixed = e.To
		if e.To == p.order[pos] {
			free, fixed = fixed, free
			lv.fixed = e.From
		}
		for i := range e.Pred.Terms {
			t := &e.Pred.Terms[i]
			if t.Kind != scoring.CompEquals && t.Kind != scoring.CompGreater {
				lv.unsat = true
			}
			cs, ce := t.Diff.Coef[free[0]], t.Diff.Coef[free[1]]
			bt := boxTerm{kind: t.Kind, p: t.P, fs: t.Diff.Coef[fixed[0]], fe: t.Diff.Coef[fixed[1]], k: t.Diff.Const}
			switch {
			case cs != 0 && ce == 0:
				bt.c = cs
			case ce != 0 && cs == 0:
				bt.c, bt.onEnd = ce, true
			default:
				continue
			}
			lv.terms = append(lv.terms, bt)
		}
	}
}

func newPlan(q *query.Query) *plan {
	n := q.NumVertices
	p := &plan{q: q}
	bound := make([]bool, n)
	edgeDone := make([]bool, len(q.Edges))
	p.order = append(p.order, 0)
	bound[0] = true
	for len(p.order) < n {
		// Pick the lowest-numbered unbound vertex adjacent to the bound
		// set (exists: the graph is weakly connected).
		next := -1
		for v := 0; v < n && next == -1; v++ {
			if bound[v] {
				continue
			}
			for _, e := range q.Edges {
				if (e.From == v && bound[e.To]) || (e.To == v && bound[e.From]) {
					next = v
					break
				}
			}
		}
		p.order = append(p.order, next)
		bound[next] = true
	}
	p.bindEdges = make([][]int, n)
	p.primary = make([]int, n)
	p.boundBefore = make([]int, n)
	p.primary[0] = -1
	reBound := make([]bool, n)
	done := 0
	for pos, v := range p.order {
		p.boundBefore[pos] = done
		if pos > 0 {
			p.primary[pos] = -1
			for ei, e := range p.q.Edges {
				other := -1
				if e.From == v && reBound[e.To] {
					other = e.To
				} else if e.To == v && reBound[e.From] {
					other = e.From
				}
				if other >= 0 && !edgeDone[ei] {
					p.bindEdges[pos] = append(p.bindEdges[pos], ei)
					edgeDone[ei] = true
					if p.primary[pos] == -1 {
						p.primary[pos] = ei
					}
				}
			}
			done += len(p.bindEdges[pos])
		}
		reBound[v] = true
	}
	_, p.avgAgg = p.q.Agg.(scoring.Avg)
	p.compileBoxes()
	return p
}

// localJoiner evaluates one reducer's share of the query.
type localJoiner struct {
	plan *plan
	k    int
	opts LocalOptions
	// stream is the plan the local pass reads (nil for a split
	// request's reducer); combos is the split request's combination
	// list, read in place, which a reducer's list indexes into.
	stream *topbuckets.Plan
	combos []topbuckets.Combo
	// srcs supplies each query vertex's bucket data (shared,
	// concurrency-safe on the store-backed path).
	srcs []Source
	// shared is the score floor shared with the request's other
	// reducers (the local pass's is private); nil when pruning is
	// disabled.
	shared *SharedFloor
	// done is the request context's Done channel, polled every few
	// thousand candidate visits (so the hot loop stays branch-cheap) to
	// stop burning reducer time on a result nobody will read — a standing
	// subscription closed mid-push, a shard link that dropped. nil (a
	// background-like context) keeps the polling branch out entirely.
	done <-chan struct{}

	topk     *TopK
	tuple    []interval.Interval
	partials []float64 // -1 = unbound
	scratch  []float64
	stats    LocalStats

	// floor is the pass's own score floor: the rung value during a
	// probe-ladder rung, 0 after the ladder. The effective floor is the
	// higher of it and the shared floor, read live.
	floor float64
	// canceled latches once done is closed, or once err is set: every
	// recursion level, rung and combination loop unwinds, and the caller
	// must discard the (truncated) output.
	canceled bool
	// err is set when the plan yields a combination without one edge UB
	// per query edge, which recurse would index out of range.
	err error

	// edgeUB[ei] bounds edge ei's score for tuples drawn from the
	// combination being processed (its EdgeUB, read in place) — far
	// tighter than the generic 1.0 for star queries whose edges mostly
	// cannot score at all in a given combination.
	edgeUB []float64

	// buckets[v] and items[v] are vertex v's bucket of the combination
	// being processed, resolved once by prepareCombo so that recurse —
	// which runs per partial tuple — does no lookup. buckets[v] is nil
	// when the bucket is absent.
	buckets []Bucket
	items   [][]interval.Interval

	// levels is per-plan-position probe scratch: the visit closure handed
	// to Bucket.Search is built once per level here and reused across
	// every combination, ladder rung and bucket, so a warm probe
	// allocates nothing (a fresh closure per recurse call escaped to the
	// heap on every single bucket probe).
	levels []probeLevel
}

// probeLevel is the reusable per-level probe state: recurse parks the
// level's loop variables here and hands the prebuilt fn to the bucket
// search. Levels nest strictly (recursion only deepens), so each
// position's state is never clobbered while a shallower probe is using
// it.
type probeLevel struct {
	lj      *localJoiner
	pos     int
	items   []interval.Interval
	thr     float64
	pruning bool
	fn      func(ref int32) bool
}

// visit scores one candidate binding for the level's vertex and recurses.
func (l *probeLevel) visit(iv interval.Interval) {
	lj := l.lj
	p := lj.plan
	lj.tuple[p.order[l.pos]] = iv
	lj.stats.TuplesExamined++
	if lj.done != nil && lj.stats.TuplesExamined%4096 == 0 {
		select {
		case <-lj.done:
			lj.canceled = true
			return
		default:
		}
	}
	for _, ei := range p.bindEdges[l.pos] {
		e := p.q.Edges[ei]
		lj.partials[ei] = e.Pred.Score(lj.tuple[e.From], lj.tuple[e.To])
	}
	if l.pruning && lj.partialUpperBound() <= l.thr {
		lj.stats.PartialsPruned++
	} else {
		lj.recurse(l.pos + 1)
	}
	for _, ei := range p.bindEdges[l.pos] {
		lj.partials[ei] = -1
	}
}

func newLocalJoiner(done <-chan struct{}, p *plan, req *ReduceRequest) *localJoiner {
	lj := &localJoiner{
		plan:     p,
		k:        req.K,
		opts:     req.Opts,
		srcs:     req.Srcs,
		shared:   req.Shared,
		done:     done,
		topk:     NewTopK(req.K),
		tuple:    make([]interval.Interval, p.q.NumVertices),
		partials: make([]float64, len(p.q.Edges)),
		scratch:  make([]float64, len(p.q.Edges)),
		buckets:  make([]Bucket, p.q.NumVertices),
		items:    make([][]interval.Interval, p.q.NumVertices),
	}
	for i := range lj.partials {
		lj.partials[i] = -1
	}
	lj.levels = make([]probeLevel, p.q.NumVertices)
	for pos := range lj.levels {
		l := &lj.levels[pos]
		l.lj = lj
		l.pos = pos
		l.fn = func(ref int32) bool {
			l.visit(l.items[ref])
			return !lj.canceled
		}
	}
	return lj
}

// prepareCombo makes combo the combination being processed: it resolves
// each vertex's bucket handle and takes the combination's per-edge upper
// bounds, which its plan solved once over the buckets' boxes.
func (lj *localJoiner) prepareCombo(combo topbuckets.Combo) {
	for v, b := range combo.Buckets {
		h := lj.srcs[v].Bucket(b.StartG, b.EndG)
		lj.buckets[v], lj.items[v] = h, nil
		if h != nil {
			lj.items[v] = h.Items()
		}
	}
	lj.edgeUB = combo.EdgeUB
}

// output runs the reducer — its task list idxs, or the plan when it
// reads one — and packages its results and statistics.
func (lj *localJoiner) output(reducer int, idxs []int) ReducerOutput {
	results := lj.run(idxs)
	lj.stats.Reducer = reducer
	return ReducerOutput{Reducer: reducer, Results: results, Stats: lj.stats}
}

// run processes the reducer's combinations by descending score upper
// bound (§3.4) — the plan's, or idxs indexing lj.combos (RunTasks
// checked their order) — and returns the local top-k. Unless pruning is
// disabled, the probe ladder's rungs come first (see probeLadder); a
// rung the shared floor already covers is not run.
func (lj *localJoiner) run(idxs []int) []Result {
	start := time.Now()
	if lj.stream == nil {
		lj.stats.CombosAssigned = len(idxs)
	}
	if !lj.opts.DisablePruning {
		for _, v := range probeLadder {
			if v <= lj.sharedFloor() || lj.canceled {
				break
			}
			lj.stats.ProbeRounds++
			lj.floor = v
			lj.pass(idxs)
			if lj.topk.Full() || lj.sharedFloor() >= v {
				break
			}
			lj.floor = 0
			lj.topk = NewTopK(lj.k)
		}
	}
	if lj.floor == 0 { // no rung answered: one pass from the shared floor
		lj.pass(idxs)
	}
	results := lj.topk.Results()
	lj.stats.ResultsReturned = len(results)
	if len(results) > 0 {
		lj.stats.MinScore = results[len(results)-1].Score
	}
	lj.stats.FloorUsed = lj.effectiveFloor()
	lj.stats.SharedFloorFinal = lj.sharedFloor()
	lj.stats.Duration = time.Since(start)
	return results
}

// pass runs the reducer's combinations once at the current floor,
// collecting into lj.topk. Reading a plan, it asks for the next
// combination only while the plan's bound on the rest clears the
// threshold, so a combination the pass would skip is never built.
func (lj *localJoiner) pass(idxs []int) {
	lj.stats.CombosProcessed, lj.stats.CombosSkipped = 0, 0
	pruning := !lj.opts.DisablePruning
	for i := 0; !lj.canceled; i++ {
		var c topbuckets.Combo
		if lj.stream == nil {
			if i == len(idxs) {
				return
			}
			c = lj.combos[idxs[i]]
		} else {
			if pruning && lj.stream.Bound(i) <= lj.pruneThreshold() {
				return
			}
			var ok bool
			if c, ok = lj.stream.At(i); !ok {
				return
			}
			lj.stats.CombosAssigned = max(lj.stats.CombosAssigned, i+1)
			if len(c.EdgeUB) != len(lj.plan.q.Edges) {
				lj.err = fmt.Errorf("combination %d carries %d edge UBs, query %s has %d edges", i, len(c.EdgeUB), lj.plan.q.Name, len(lj.plan.q.Edges))
				lj.canceled = true
				return
			}
		}
		if pruning && c.UB <= lj.pruneThreshold() {
			// By descending UB: every remaining combination is also
			// dominated — the paper's early termination.
			if lj.stream == nil {
				lj.stats.CombosSkipped = len(idxs) - i
			} else {
				lj.stats.CombosSkipped = 1
			}
			return
		}
		lj.stats.CombosProcessed++
		lj.prepareCombo(c)
		lj.recurse(0)
	}
}

// sharedFloor is the cross-reducer floor's current value, 0 without one.
func (lj *localJoiner) sharedFloor() float64 {
	if lj.shared == nil {
		return 0
	}
	return lj.shared.Load()
}

// effectiveFloor is the pass's certified-or-optimistic score floor: its
// own floor or the cross-reducer shared floor, whichever is higher.
func (lj *localJoiner) effectiveFloor() float64 {
	return max(lj.floor, lj.sharedFloor())
}

// pruneThreshold is the score a candidate must strictly exceed to be
// worth pursuing: the effective floor (minus epsilon, so exact-floor
// scores survive) raised to the current k-th score once the collector
// fills.
func (lj *localJoiner) pruneThreshold() float64 {
	thr := lj.effectiveFloor() - floorEps
	if lj.topk.Full() {
		if t := lj.topk.Threshold(); t > thr {
			thr = t
		}
	}
	return thr
}

// recurse binds the vertex at position pos of the plan order, drawing
// candidates from the buckets prepareCombo resolved.
func (lj *localJoiner) recurse(pos int) {
	p := lj.plan
	if pos == len(p.order) {
		score := p.q.Agg.Aggregate(lj.partials)
		if !lj.opts.DisablePruning && score <= lj.effectiveFloor()-floorEps {
			return // below the rung, or certified below the global k-th result
		}
		if lj.topk.Add(Result{Tuple: append([]interval.Interval(nil), lj.tuple...), Score: score}) &&
			lj.shared != nil && lj.topk.Full() {
			// This reducer's k-th local score lower-bounds the global
			// k-th score: publish it so every reducer prunes with it.
			lj.shared.Raise(lj.topk.Threshold())
		}
		return
	}
	v := p.order[pos]
	items := lj.items[v]
	if len(items) == 0 {
		return
	}
	if pos == 0 {
		for _, iv := range items {
			lj.tuple[v] = iv
			lj.recurse(1)
			if lj.canceled {
				return
			}
		}
		return
	}

	thr := -1.0
	pruning := !lj.opts.DisablePruning && (lj.topk.Full() || lj.effectiveFloor() > 0)
	if pruning {
		thr = lj.pruneThreshold()
	}
	vmin := lj.requiredEdgeScore(pos, thr, pruning)
	if vmin > 1 {
		// Even a perfect primary-edge score cannot beat the threshold.
		lj.stats.PartialsPruned++
		return
	}

	l := &lj.levels[pos]
	l.items = items
	l.thr = thr
	l.pruning = pruning

	if lj.opts.DisableIndex {
		for _, iv := range items {
			l.visit(iv)
			if lj.canceled {
				return
			}
		}
		return
	}
	lj.buckets[v].Search(lj.candidateBox(pos, vmin), l.fn)
}

// requiredEdgeScore inverts the aggregate threshold into the minimum
// score the primary edge at pos must reach, assuming every other unknown
// edge scores a perfect 1. Only implemented for the normalized sum (the
// paper's S); other aggregators fall back to 0 (no index narrowing,
// still exact).
func (lj *localJoiner) requiredEdgeScore(pos int, thr float64, pruning bool) float64 {
	p := lj.plan
	if !pruning || !p.avgAgg || len(p.q.Edges) == 0 {
		return 0
	}
	// Bound edges contribute their actual scores; unknown edges other
	// than the primary contribute their in-combination upper bounds.
	ei := p.primary[pos]
	var otherSum float64
	for i, s := range lj.partials {
		switch {
		case s >= 0:
			otherSum += s
		case i != ei:
			otherSum += lj.edgeUB[i]
		}
	}
	return thr*float64(len(p.q.Edges)) - otherSum
}

// candidateBox derives the index query box for the free vertex at pos:
// every term of the primary edge's predicate must score at least vmin,
// and terms touching exactly one free endpoint translate into an
// interval constraint on that endpoint. Terms touching both free
// endpoints (e.g. the length term of sparks) contribute no box
// constraint and are handled by the exact filter. What depends only on
// the query is compiled into plan.boxes; per probe only the fixed
// interval and vmin enter. The builtin min/max narrow exactly as
// math.Max/Min would for every non-NaN bound (signed zeros included),
// and finite predicate parameters produce no NaN.
func (lj *localJoiner) candidateBox(pos int, vmin float64) rtree.Rect {
	box := rtree.Everything()
	if vmin <= 0 {
		return box
	}
	lv := &lj.plan.boxes[pos]
	if lv.unsat {
		// vmin unreachable: empty box.
		return rtree.Rect{MinX: 1, MaxX: 0}
	}
	fixed := lj.tuple[lv.fixed]
	fs, fe := float64(fixed.Start), float64(fixed.End)
	for i := range lv.terms {
		t := &lv.terms[i]
		dLo, dHi := requiredDiffRange(t.kind, t.p, vmin)
		lo, hi := solveLinear(t.c, t.fs*fs+t.fe*fe+t.k, dLo, dHi)
		if t.onEnd {
			box.MinY, box.MaxY = max(box.MinY, lo), min(box.MaxY, hi)
		} else {
			box.MinX, box.MaxX = max(box.MinX, lo), min(box.MaxX, hi)
		}
	}
	return box
}

// requiredDiffRange returns the difference interval where a term of the
// given kind (CompEquals or CompGreater) scores at least vmin
// (0 < vmin <= 1).
func requiredDiffRange(kind scoring.CompKind, p scoring.Params, vmin float64) (dLo, dHi float64) {
	if kind == scoring.CompEquals {
		m := p.Lambda
		if p.Rho > 0 {
			m = p.Lambda + p.Rho*(1-vmin)
		}
		return -m, m
	}
	lo := p.Lambda
	if p.Rho > 0 {
		lo = p.Lambda + p.Rho*vmin
	}
	return lo, math.Inf(1)
}

// solveLinear returns the f range satisfying dLo <= c·f + rest <= dHi.
func solveLinear(c, rest, dLo, dHi float64) (lo, hi float64) {
	lo, hi = (dLo-rest)/c, (dHi-rest)/c
	if c < 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// partialUpperBound aggregates bound edges' actual scores with each
// unbound edge's in-combination upper bound — a valid upper bound on any
// completion of the partial tuple, by monotonicity of the aggregator.
func (lj *localJoiner) partialUpperBound() float64 {
	for i, s := range lj.partials {
		if s < 0 {
			lj.scratch[i] = lj.edgeUB[i]
		} else {
			lj.scratch[i] = s
		}
	}
	return lj.plan.q.Agg.Aggregate(lj.scratch)
}
