package plancache

import (
	"slices"
	"time"

	"tkij/internal/distribute"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// revalidate carries entry e (planned at an earlier epoch) to
// req.Epoch, returning a fresh entry and the caller-facing plan — or
// (nil, nil) to demand a full re-plan. It exploits the append-only
// epoch model: between e's epoch and now, bucket counts only grew, the
// non-empty bucket set only grew, and granule boxes changed only at the
// two boundary granules stats.Grid widens for out-of-range appends.
//
// Soundness argument, in terms of the Definition-2 certificate (a
// threshold t such that the selected set carries >= k results with
// LB >= t and every unselected combination has UB <= t):
//
//   - A combination touching no affected bucket kept all its granule
//     boxes, so its cached LB/UB still bound its (grown) contents.
//   - Every combination touching an affected bucket is re-bounded with
//     the tight solver over current boxes: the cached selected ones in
//     place, the previously pruned ones by enumerating exactly the
//     affected region (first-affected-position decomposition — nothing
//     outside it changed).
//   - Selection re-runs over cached ∪ affected with refreshed counts,
//     yielding a new certified floor t'. Unselected combinations inside
//     that candidate set have UB <= t' by the selection invariant;
//     unenumerated pruned combinations still satisfy UB <= t_old — so
//     the plan is promoted only when t' >= t_old, which extends the
//     certificate to them. Otherwise the entry is abandoned to a full
//     re-plan (always safe, and rare: appends grow counts, which pushes
//     thresholds up, not down — only boundary-granule widening can
//     lower a cover LB).
func (c *Cache) revalidate(e *entry, req Request, reqLabeling []int) (*entry, *Planned) {
	start := time.Now()

	// The entry may be expressed in an isomorphic query's labeling;
	// sigma maps request vertices onto entry vertices (nil = identity).
	sigma := sigmaFor(e.labeling, reqLabeling)
	entryVertex := func(v int) int {
		if sigma == nil {
			return v
		}
		return sigma[v]
	}
	diff, ok := e.state.Diff(req.Matrices, sigma)
	if !ok {
		return nil, nil // granulation swap or vertex mismatch: not append-only
	}
	lists := make([][]stats.Bucket, len(req.Matrices))
	for v, m := range req.Matrices {
		lists[v] = m.Buckets()
	}

	if !diff.AnyShape() {
		// Pure promotion: no bucket the plan's bounds depend on changed
		// shape. Grown counts only strengthen the kthResLB certificate
		// (more results at or above the floor), so plan, bounds, floor
		// and assignment all carry over verbatim — the entry keeps its
		// own labeling, the caller gets the plan translated into its.
		ne := &entry{
			key: e.key, epoch: req.Epoch, labeling: e.labeling,
			tb: e.tb, assign: e.assign, bounds: e.bounds,
			planTime: e.planTime, cost: e.cost, state: e.state,
		}
		tb, assign := translatePlan(e.tb, e.assign, sigma)
		return ne, &Planned{
			TopBuckets:     tb,
			Assignment:     assign,
			Bounds:         e.bounds,
			Outcome:        Revalidated,
			TopBucketsTime: time.Since(start),
			SavedPlanTime:  e.planTime,
		}
	}

	affected := diff.ShapeAffected
	region, ok := topbuckets.AffectedCombos(lists, affected, MaxAffected)
	if !ok {
		return nil, nil
	}

	// Candidate set: the cached selected combinations — translated into
	// the request's labeling and with refreshed counts (deep-copied;
	// entries are immutable and may be serving other queries right
	// now) ...
	sel := make([]topbuckets.Combo, len(e.tb.Selected))
	var dirty []int
	for i, old := range e.tb.Selected {
		cb := old
		cb.Buckets = make([]stats.Bucket, len(old.Buckets))
		cb.NbRes = 1
		for v := range cb.Buckets {
			b := old.Buckets[entryVertex(v)]
			b.Col = v
			b.Count = req.Matrices[v].Count(b.StartG, b.EndG)
			cb.Buckets[v] = b
			cb.NbRes *= float64(b.Count)
		}
		sel[i] = cb
		if cb.Touches(affected) {
			dirty = append(dirty, i)
		}
	}
	// ... plus the previously pruned combinations inside the affected
	// region (anything with at least one new or boundary-widened
	// bucket; their old UB <= t_old no longer binds). A cached
	// combination lies in the region exactly when it is dirty, so the
	// region members already among the candidates are the ones whose
	// bucket tuple equals a dirty one's.
	dirtyTuples := make([][]stats.Bucket, len(dirty))
	for i, idx := range dirty {
		dirtyTuples[i] = sel[idx].Buckets
	}
	slices.SortFunc(dirtyTuples, topbuckets.CompareTuples)
	fresh := region[:0]
	for _, cb := range region {
		if _, cached := slices.BinarySearchFunc(dirtyTuples, cb.Buckets, topbuckets.CompareTuples); !cached {
			fresh = append(fresh, cb)
		}
	}

	// Re-bound everything the epoch transition touched with the tight
	// solver over current (widened) boxes. Tight bounds are valid for
	// any strategy's selection — bounds only need to be safe, and
	// tighter bounds can only improve the certificate.
	scratch := make([]topbuckets.Combo, len(dirty))
	for i, idx := range dirty {
		scratch[i] = sel[idx]
	}
	topbuckets.TightenBounds(req.Query, req.Matrices, scratch, req.TopBuckets)
	for i, idx := range dirty {
		sel[idx] = scratch[i]
	}
	topbuckets.TightenBounds(req.Query, req.Matrices, fresh, req.TopBuckets)

	candidates := append(sel, fresh...)
	newSel, newT := topbuckets.SelectWithThreshold(req.K, candidates)
	if newT < e.tb.KthResLB {
		// The recomputed floor no longer certifies the old prune: some
		// cover combination's LB fell when its boundary granule widened.
		// The never-enumerated pruned combinations are only certified
		// below t_old, so serving newT < t_old could prune true results.
		return nil, nil
	}

	totalCombos, totalResults := 1.0, 1.0
	for v, list := range lists {
		totalCombos *= float64(len(list))
		totalResults *= float64(req.Matrices[v].Total())
	}
	tb := &topbuckets.Result{
		Selected:         newSel,
		TotalCombos:      totalCombos,
		TotalResults:     totalResults,
		PairSolverCalls:  e.tb.PairSolverCalls,
		TightSolverCalls: e.tb.TightSolverCalls + len(dirty) + len(fresh),
		KthResLB:         newT,
	}
	for _, cb := range newSel {
		tb.SelectedResults += cb.NbRes
	}
	tbTime := time.Since(start)

	dStart := time.Now()
	assign, err := distribute.Assign(req.Distribution, newSel, req.Reducers)
	if err != nil {
		return nil, nil
	}
	tb.Total = tbTime

	// The re-selected plan reads mostly the same bucket pairs: its memo
	// succeeds the old one, so only bounds whose box changed are solved
	// again, while keys the new selection never asks for are let go.
	ne := &entry{
		key: e.key, epoch: req.Epoch, labeling: reqLabeling,
		tb: tb, assign: assign, bounds: e.bounds.Next(),
		planTime: e.planTime,
		cost: e.cost + float64(len(dirty)+len(fresh)) +
			memoCost(req.Query, tb) - memoCost(req.Query, e.tb),
		state: CaptureEpochState(req.Matrices),
	}
	return ne, &Planned{
		TopBuckets:     tb,
		Assignment:     assign,
		Bounds:         ne.bounds,
		Outcome:        Revalidated,
		TopBucketsTime: tbTime,
		DistributeTime: time.Since(dStart),
		SavedPlanTime:  e.planTime,
	}
}
