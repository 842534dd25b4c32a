package join

import (
	"cmp"
	"math"
	"slices"
	"time"

	"tkij/internal/solver"

	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/rtree"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// Source supplies one query vertex's bucket data to the local join:
// interval slices and memoized R-tree probes looked up by granule
// pair. store.ColView (an epoch-pinned view) implements it for the
// dataset-resident serving path — a bucket there may be covered by a
// sealed base tree plus a small delta tree over appended intervals,
// which is why the interface exposes a search rather than one tree.
// Implementations shared across reduce tasks must be safe for
// concurrent use.
type Source interface {
	// BucketItems returns bucket (startG, endG)'s intervals (nil when
	// empty). The slice is read-only and must stay stable across calls.
	BucketItems(startG, endG int) []interval.Interval
	// SearchBucket probes bucket (startG, endG) for (start, end) points
	// inside box, invoking fn with indexes into BucketItems. fn
	// returning false stops the probe.
	SearchBucket(startG, endG int, box rtree.Rect, fn func(ref int32) bool)
}

// LocalOptions tunes the per-reducer join. The zero value is the paper's
// configuration: R-tree candidate access and threshold pruning enabled.
type LocalOptions struct {
	// DisableIndex replaces R-tree probes with full bucket scans
	// (ablation: BenchmarkAblationLocalIndex).
	DisableIndex bool
	// DisablePruning turns off threshold-based pruning, the score floor,
	// the probe ladder and combination early termination (ablation:
	// BenchmarkAblationPruning).
	DisablePruning bool
	// Floor is a certified lower bound on the global k-th result's score
	// (TopBuckets' kthResLB): no result scoring strictly below it can
	// reach the top-k, so reducers discard such results outright. Zero
	// is always safe.
	Floor float64
	// Share, when non-nil, connects this execution to a batch-scoped
	// sharing registry (admission batching): per-edge combination
	// bounds are memoized across every reducer of every batch member.
	Share *BatchShare
	// FloorKey, when non-empty alongside Share, is the plan-identity
	// key under which the cross-reducer score floor is shared with
	// other batch members. Soundness requires that every execution
	// using one key has an identical result-score multiset — the
	// admission layer keys it by canonical plan key, which guarantees
	// that. Empty keeps the floor private to this execution (bound
	// memoization still applies).
	FloorKey string
}

// floorEps is subtracted from score floors before strict comparisons so
// results scoring exactly the floor survive. Integer endpoints quantize
// scores at 1/ρ steps, orders of magnitude above this epsilon.
const floorEps = 1e-9

// probeLadder is the descending sequence of optimistic score floors the
// local join probes before its exact pass. The paper's reducers query
// the R-tree "for an interval x_i and a score value v" (§4); the ladder
// supplies v: if a cheap, tightly-boxed probe finds k results scoring at
// least v, the exact pass can start with threshold v instead of
// discovering it gradually — avoiding exhaustive enumeration when
// high-scoring results are sparse.
var probeLadder = []float64{0.95, 0.75, 0.5, 0.25}

// LocalStats describes one reducer's local join work.
type LocalStats struct {
	Reducer         int
	CombosAssigned  int
	CombosProcessed int
	CombosSkipped   int
	// TuplesExamined counts candidate extensions scored.
	TuplesExamined int64
	// PartialsPruned counts partial tuples cut by the threshold test.
	PartialsPruned int64
	// ResultsReturned is the size of the local top-k list.
	ResultsReturned int
	// ProbeRounds counts probe-ladder rounds run before the exact pass.
	ProbeRounds int
	// FloorUsed is the score floor of the exact pass (Floor option,
	// possibly raised by a successful probe).
	FloorUsed float64
	// MinScore is the lowest score among returned results (the k-th
	// local result when the reducer filled its list — Figure 8c). It is
	// 0 when the reducer returned no results — never NaN, so reports
	// survive encoding/json, which rejects NaN; check ResultsReturned
	// before reading it.
	MinScore float64
	// BucketRefsRouted is the number of bucket references the assignment
	// routes to this reducer: the distinct buckets its combinations
	// touch (intervals stay resident; only references are routed). Filled
	// by Run, like RoutedIntervals.
	BucketRefsRouted int
	// RoutedIntervals is the resident-interval weight of those
	// references (Σ|b|) — this reducer's share of the replication cost
	// DTB minimizes.
	RoutedIntervals float64
	// SharedFloorFinal is the cross-reducer threshold when this reducer
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
	// edgeSigs are the per-edge predicate scoring signatures, computed
	// once per Run when a BatchShare is attached (they key the shared
	// bound memo); nil otherwise.
	edgeSigs []string
}

// computeEdgeSigs fills edgeSigs for bound-memo keying.
func (p *plan) computeEdgeSigs() {
	p.edgeSigs = make([]string, len(p.q.Edges))
	for i, e := range p.q.Edges {
		p.edgeSigs[i] = e.Pred.Signature()
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
	return p
}

// localJoiner evaluates one reducer's share of the query.
type localJoiner struct {
	plan *plan
	k    int
	opts LocalOptions
	// combos is the request's Ω_k,S, read in place; a reducer's
	// combination list indexes into it.
	combos []topbuckets.Combo
	// srcs supplies each query vertex's bucket data (shared,
	// concurrency-safe on the store-backed path).
	srcs []Source
	// shared is the cross-reducer threshold; nil when pruning is
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

	// floor is the active score floor: results strictly below it are
	// discarded. Starts at opts.Floor and may be raised by a successful
	// probe-ladder round.
	floor float64
	// probing marks probe-ladder mode: results are counted, not kept.
	probing    bool
	probeCount int
	stop       bool
	// canceled latches once done is closed: every recursion level, probe
	// round and combination loop unwinds, and the caller must discard the
	// (truncated) output.
	canceled bool

	// grans maps each query vertex to its collection's granulation plus
	// observed endpoint extent, used to derive per-edge score upper
	// bounds within the current combination (extent-widened boundary
	// granules keep the bounds sound for clamped appends).
	grans []stats.Grid
	// edgeUB[ei] bounds edge ei's score for tuples drawn from the
	// combination being processed — far tighter than the generic 1.0 for
	// star queries whose edges mostly cannot score at all in a given
	// combination.
	edgeUB []float64

	// levels is per-plan-position probe scratch: the visit closure handed
	// to SearchBucket is built once per level here and reused across
	// every combination, probe round and bucket, so a warm probe
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
	combo   topbuckets.Combo
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
			lj.stop = true
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
		lj.recurse(l.pos+1, l.combo)
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
		combos:   req.Combos,
		srcs:     req.Srcs,
		grans:    req.Grans,
		shared:   req.Shared,
		done:     done,
		topk:     NewTopK(req.K),
		tuple:    make([]interval.Interval, p.q.NumVertices),
		partials: make([]float64, len(p.q.Edges)),
		scratch:  make([]float64, len(p.q.Edges)),
		edgeUB:   make([]float64, len(p.q.Edges)),
	}
	for i := range lj.partials {
		lj.partials[i] = -1
	}
	for i := range lj.edgeUB {
		lj.edgeUB[i] = 1
	}
	lj.levels = make([]probeLevel, p.q.NumVertices)
	for pos := range lj.levels {
		l := &lj.levels[pos]
		l.lj = lj
		l.pos = pos
		l.fn = func(ref int32) bool {
			l.visit(l.items[ref])
			return !lj.stop
		}
	}
	return lj
}

// prepareCombo refreshes the per-edge upper bounds for the given
// combination: the analytic bound of each edge's predicate over the
// combination's bucket boxes. Without granulations (grans == nil) the
// bounds stay at the trivial 1.0. With a BatchShare attached the solve
// is memoized batch-wide, keyed by exactly its inputs (predicate
// signature + the box bounds), so overlapping combination sets across
// batch members — and across this query's own reducers and probe
// rounds — pay for each bound once.
func (lj *localJoiner) prepareCombo(combo topbuckets.Combo) {
	if lj.grans == nil {
		return
	}
	for ei, e := range lj.plan.q.Edges {
		fb := combo.Buckets[e.From]
		tb := combo.Buckets[e.To]
		fsLo, fsHi := lj.grans[e.From].Bounds(fb.StartG)
		feLo, feHi := lj.grans[e.From].Bounds(fb.EndG)
		tsLo, tsHi := lj.grans[e.To].Bounds(tb.StartG)
		teLo, teHi := lj.grans[e.To].Bounds(tb.EndG)
		fBox := solver.VertexBox{StartLo: fsLo, StartHi: fsHi, EndLo: feLo, EndHi: feHi}
		tBox := solver.VertexBox{StartLo: tsLo, StartHi: tsHi, EndLo: teLo, EndHi: teHi}
		solve := func() float64 {
			_, ub := solver.PredicateBounds(e.Pred, fBox, tBox, solver.Options{MaxNodes: 64, Eps: 0.01})
			return ub
		}
		if lj.opts.Share != nil && lj.plan.edgeSigs != nil {
			lj.edgeUB[ei] = lj.opts.Share.edgeUB(edgeBoundKey{
				sig: lj.plan.edgeSigs[ei],
				box: [8]float64{fsLo, fsHi, feLo, feHi, tsLo, tsHi, teLo, teHi},
			}, solve)
		} else {
			lj.edgeUB[ei] = solve()
		}
	}
}

// run processes the reducer's combinations — idxs index lj.combos —
// (§3.4: accessed by descending score upper bound) and returns the
// local top-k.
func (lj *localJoiner) run(idxs []int) []Result {
	start := time.Now()
	lj.stats.CombosAssigned = len(idxs)
	ordered := lj.sortedByUB(idxs)

	if !lj.opts.DisablePruning {
		lj.floor = lj.opts.Floor
		// Adopt whatever threshold faster reducers have already
		// certified — it both prunes and skips redundant probe rounds.
		if lj.shared != nil {
			if s := lj.shared.Load(); s > lj.floor {
				lj.floor = s
			}
		}
		// Probe ladder: find the highest v for which k results scoring
		// at least v exist locally; the exact pass then starts with that
		// threshold.
		for _, v := range probeLadder {
			if v <= lj.floor || lj.canceled {
				break
			}
			lj.stats.ProbeRounds++
			if lj.probe(ordered, v) {
				lj.floor = v
				// A successful probe certifies k results scoring >= v
				// locally, which lower-bounds the global k-th score.
				if lj.shared != nil {
					lj.shared.Raise(v)
				}
				break
			}
		}
	}
	lj.stats.FloorUsed = lj.floor

	for i, ci := range ordered {
		if lj.canceled {
			break
		}
		c := lj.combos[ci]
		if !lj.opts.DisablePruning && c.UB <= lj.pruneThreshold() {
			// Sorted by descending UB: every remaining combination is
			// also dominated. This is the early-termination payoff of
			// DTB handing each reducer high-scoring results first.
			lj.stats.CombosSkipped = len(ordered) - i
			break
		}
		lj.stats.CombosProcessed++
		lj.prepareCombo(c)
		lj.recurse(0, c)
	}
	results := lj.topk.Results()
	lj.stats.ResultsReturned = len(results)
	if len(results) > 0 {
		lj.stats.MinScore = results[len(results)-1].Score
	}
	if lj.shared != nil {
		lj.stats.SharedFloorFinal = lj.shared.Load()
	}
	lj.stats.Duration = time.Since(start)
	return results
}

// sortedByUB returns a copy of idxs ordered by descending combination
// UB, stably, so ties keep the assignment order (idxs itself belongs to
// the possibly cached, shared assignment and is never reordered).
func (lj *localJoiner) sortedByUB(idxs []int) []int {
	ordered := slices.Clone(idxs)
	slices.SortStableFunc(ordered, func(a, b int) int {
		return cmp.Compare(lj.combos[b].UB, lj.combos[a].UB)
	})
	return ordered
}

// probe runs one probe-ladder round at floor v: count (up to k) results
// scoring at least v, with tight index boxes derived from v. Reports
// whether k were found.
func (lj *localJoiner) probe(ordered []int, v float64) bool {
	saved := lj.floor
	lj.floor = v
	lj.probing = true
	lj.probeCount = 0
	lj.stop = false
	for _, ci := range ordered {
		c := lj.combos[ci]
		if c.UB <= v-floorEps {
			break // sorted by descending UB
		}
		lj.prepareCombo(c)
		lj.recurse(0, c)
		if lj.stop {
			break
		}
	}
	found := lj.probeCount >= lj.k
	lj.probing = false
	lj.stop = false
	if !found {
		lj.floor = saved
	}
	return found
}

// effectiveFloor is the reducer's active certified score floor: its own
// (possibly probe-raised) floor or the cross-reducer shared floor,
// whichever is higher. Probe rounds stay local — consulting the shared
// floor there would miscount results at probe levels below it.
func (lj *localJoiner) effectiveFloor() float64 {
	f := lj.floor
	if !lj.probing && lj.shared != nil {
		if s := lj.shared.Load(); s > f {
			f = s
		}
	}
	return f
}

// pruneThreshold is the score a candidate must strictly exceed to be
// worth pursuing: the effective floor (minus epsilon, so exact-floor
// scores survive) raised to the current k-th score once the collector
// fills.
func (lj *localJoiner) pruneThreshold() float64 {
	thr := lj.effectiveFloor() - floorEps
	if !lj.probing && lj.topk.Full() {
		if t := lj.topk.Threshold(); t > thr {
			thr = t
		}
	}
	return thr
}

// recurse binds the vertex at position pos of the plan order.
func (lj *localJoiner) recurse(pos int, combo topbuckets.Combo) {
	p := lj.plan
	if pos == len(p.order) {
		score := p.q.Agg.Aggregate(lj.partials)
		if lj.probing {
			if score > lj.floor-floorEps {
				lj.probeCount++
				if lj.probeCount >= lj.k {
					lj.stop = true
				}
			}
			return
		}
		if !lj.opts.DisablePruning && score <= lj.effectiveFloor()-floorEps {
			return // certified below the global k-th result
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
	b := combo.Buckets[v]
	items := lj.srcs[v].BucketItems(b.StartG, b.EndG)
	if len(items) == 0 {
		return
	}
	if pos == 0 {
		for _, iv := range items {
			lj.tuple[v] = iv
			lj.recurse(1, combo)
			if lj.stop {
				return
			}
		}
		return
	}

	thr := -1.0
	pruning := !lj.opts.DisablePruning && (lj.probing || lj.topk.Full() || lj.effectiveFloor() > 0)
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
	l.combo = combo
	l.items = items
	l.thr = thr
	l.pruning = pruning

	if lj.opts.DisableIndex {
		for _, iv := range items {
			l.visit(iv)
			if lj.stop {
				return
			}
		}
		return
	}
	box := lj.candidateBox(pos, vmin)
	lj.srcs[v].SearchBucket(b.StartG, b.EndG, box, l.fn)
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

// candidateBox derives the R-tree query box for the free vertex at pos:
// every term of the primary edge's predicate must score at least vmin,
// and terms touching exactly one free endpoint translate into an
// interval constraint on that endpoint. Terms touching both free
// endpoints (e.g. the length term of sparks) contribute no box
// constraint and are handled by the exact filter.
func (lj *localJoiner) candidateBox(pos int, vmin float64) rtree.Rect {
	p := lj.plan
	box := rtree.Everything()
	if vmin <= 0 {
		return box
	}
	ei := p.primary[pos]
	e := p.q.Edges[ei]
	v := p.order[pos]
	// Identify which side of the edge is free and the fixed interval.
	freeIsY := e.To == v
	var fixed interval.Interval
	if freeIsY {
		fixed = lj.tuple[e.From]
	} else {
		fixed = lj.tuple[e.To]
	}
	for _, t := range e.Pred.Terms {
		dLo, dHi, ok := requiredDiffRange(t, vmin)
		if !ok {
			// vmin unreachable for this term: empty box.
			return rtree.Rect{MinX: 1, MaxX: 0}
		}
		var cs, ce float64 // coefficients of the free start/end endpoints
		var rest float64
		if freeIsY {
			cs, ce = t.Diff.Coef[scoring.YStart], t.Diff.Coef[scoring.YEnd]
			rest = t.Diff.Coef[scoring.XStart]*float64(fixed.Start) + t.Diff.Coef[scoring.XEnd]*float64(fixed.End) + t.Diff.Const
		} else {
			cs, ce = t.Diff.Coef[scoring.XStart], t.Diff.Coef[scoring.XEnd]
			rest = t.Diff.Coef[scoring.YStart]*float64(fixed.Start) + t.Diff.Coef[scoring.YEnd]*float64(fixed.End) + t.Diff.Const
		}
		switch {
		case cs != 0 && ce == 0:
			lo, hi := solveLinear(cs, rest, dLo, dHi)
			box = box.Intersect(rtree.Rect{MinX: lo, MaxX: hi, MinY: math.Inf(-1), MaxY: math.Inf(1)})
		case ce != 0 && cs == 0:
			lo, hi := solveLinear(ce, rest, dLo, dHi)
			box = box.Intersect(rtree.Rect{MinX: math.Inf(-1), MaxX: math.Inf(1), MinY: lo, MaxY: hi})
		}
		// Terms involving both or neither free endpoint: no narrowing.
	}
	return box
}

// requiredDiffRange returns the difference interval where the term
// scores at least vmin (0 < vmin <= 1). ok is false when no difference
// achieves vmin.
func requiredDiffRange(t scoring.Term, vmin float64) (dLo, dHi float64, ok bool) {
	switch t.Kind {
	case scoring.CompEquals:
		m := t.P.Lambda
		if t.P.Rho > 0 {
			m = t.P.Lambda + t.P.Rho*(1-vmin)
		}
		return -m, m, true
	case scoring.CompGreater:
		lo := t.P.Lambda
		if t.P.Rho > 0 {
			lo = t.P.Lambda + t.P.Rho*vmin
		}
		return lo, math.Inf(1), true
	}
	return 0, 0, false
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
