package plancache

import (
	"tkij/internal/stats"
)

// EpochState is the per-vertex bucket-matrix fingerprint a plan — or a
// standing subscription's pushed top-k — was computed against: the
// per-vertex matrices themselves, whose granulation grids (with observed
// endpoint extent) and per-bucket interval counts are what a later
// epoch is diffed against. Diffing it against the matrices of a later
// epoch classifies what the intervening appends changed: plan promotion
// asks whether any bucket changed shape (AnyShape), a standing push
// whether any grew (AnyGrown). Capture is O(vertices) and copies no
// counts; a state is immutable and safe to share.
type EpochState struct {
	matrices []*stats.Matrix
}

// CaptureEpochState fingerprints the per-vertex matrices by holding on
// to them. Contract: matrices handed to Plan or CaptureEpochState are
// never mutated afterwards. The engine honours it by copy-on-write:
// Append, the only way an engine's data changes, clones a collection's
// matrix before folding the batch in.
func CaptureEpochState(matrices []*stats.Matrix) *EpochState {
	return &EpochState{matrices: append([]*stats.Matrix(nil), matrices...)}
}

// Diff classifies the transition from the captured state to the current
// matrices, a later epoch of the same engine. permute maps current
// vertex v onto the captured state's vertex (nil = identity) — the plan
// cache passes the isomorphism between an entry's labeling and the
// request's. An engine's epochs only grow counts and its granulation
// never changes, and the plan key (or the subscription) fixes the
// vertex count, so every transition is diffable.
func (s *EpochState) Diff(matrices []*stats.Matrix, permute []int) EpochDiff {
	var d EpochDiff
	for v, m := range matrices {
		sv := v
		if permute != nil {
			sv = permute[v]
		}
		old := s.matrices[sv]
		grid, oldGrid := m.Grid(), old.Grid()
		if grid.Lo < oldGrid.Lo || grid.Hi > oldGrid.Hi {
			// An out-of-range append clamped into a boundary bucket:
			// boundary boxes changed shape and some bucket grew.
			d.anyShape, d.anyGrowth = true, true
		} else {
			for _, b := range m.Buckets() {
				c := old.Count(b.StartG, b.EndG)
				if c == 0 { // absent at capture: a new bucket
					d.anyShape, d.anyGrowth = true, true
					break
				}
				if b.Count != c {
					d.anyGrowth = true
				}
			}
		}
	}
	return d
}

// EpochDiff is the classified difference between an EpochState and a
// later epoch's matrices.
type EpochDiff struct {
	anyShape  bool
	anyGrowth bool
}

// AnyShape reports whether any bucket's granule box changed: a bucket
// appeared, or a boundary granule widened. Only then can cached score
// bounds be stale; grown-in-place counts never move a box.
func (d EpochDiff) AnyShape() bool { return d.anyShape }

// AnyGrown reports whether any bucket's contents grew — whether the
// epoch transition can contribute any new join result at all.
func (d EpochDiff) AnyGrown() bool { return d.anyGrowth }
