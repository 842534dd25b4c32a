package solver

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"tkij/internal/query"
	"tkij/internal/scoring"
)

// The worked example of §3.3: s-meets with (λ,ρ) = (4,8) over the bucket
// combination (b_{1,1,2}, b_{2,2,3}) with g ranges [10,20],[20,30] and
// [20,30],[30,40]. The paper derives UB = 1 and LB = 0.25.
func TestPaperMeetsExample(t *testing.T) {
	pred := scoring.Meets(scoring.PairParams{Equals: scoring.Params{Lambda: 4, Rho: 8}})
	x := VertexBox{StartLo: 10, StartHi: 20, EndLo: 20, EndHi: 30}
	y := VertexBox{StartLo: 20, StartHi: 30, EndLo: 30, EndHi: 40}
	lb, ub := predicateBounds(pred, x, y, setting{})
	if math.Abs(ub-1) > 1e-6 {
		t.Errorf("UB = %g, want 1", ub)
	}
	if math.Abs(lb-0.25) > 1e-6 {
		t.Errorf("LB = %g, want 0.25", lb)
	}
}

// The Figure 6 example: chain s-starts(1,2), s-starts(2,3) with
// parameters (λe,ρe) = (1,3), (λg,ρg) = (0,4), normalized sum, buckets
// b1 = (g1,g2), b2 = (g2,g3), b3 = (g3,g3), g1 = [10,20], g2 = [20,30],
// g3 = [30,40]. brute-force (tight) bounds are UB = 0.5, LB = 0 —
// the two equals terms cannot both be satisfied.
func TestPaperFigure6TightBounds(t *testing.T) {
	pp := scoring.PairParams{Equals: scoring.Params{Lambda: 1, Rho: 3}, Greater: scoring.Params{Lambda: 0, Rho: 4}}
	q := query.MustNew("fig6", 3, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Starts(pp)},
		{From: 1, To: 2, Pred: scoring.Starts(pp)},
	}, scoring.Avg{})
	boxes := []VertexBox{
		{StartLo: 10, StartHi: 20, EndLo: 20, EndHi: 30},
		{StartLo: 20, StartHi: 30, EndLo: 30, EndHi: 40},
		{StartLo: 30, StartHi: 40, EndLo: 30, EndHi: 40},
	}
	lb, ub, _ := queryBoundsCert(q, boxes, setting{maxNodes: 20000})
	if math.Abs(ub-0.5) > 1e-3 {
		t.Errorf("tight UB = %g, want 0.5", ub)
	}
	if math.Abs(lb) > 1e-6 {
		t.Errorf("tight LB = %g, want 0", lb)
	}
	// The per-edge (loose) aggregation would give UB = 1: each pair in
	// isolation can reach a perfect starts score.
	lb1, ub1 := predicateBounds(scoring.Starts(pp), boxes[0], boxes[1], setting{})
	lb2, ub2 := predicateBounds(scoring.Starts(pp), boxes[1], boxes[2], setting{})
	if ub1 != 1 || ub2 != 1 {
		t.Errorf("pair UBs = %g, %g, want 1, 1 (the loose overestimate)", ub1, ub2)
	}
	if lb1 != 0 || lb2 != 0 {
		t.Errorf("pair LBs = %g, %g, want 0, 0", lb1, lb2)
	}
}

func randBox(rng *rand.Rand) VertexBox {
	sLo := float64(rng.Intn(100))
	sW := float64(rng.Intn(30) + 1)
	eLo := sLo + float64(rng.Intn(40))
	eW := float64(rng.Intn(30) + 1)
	return VertexBox{StartLo: sLo, StartHi: sLo + sW, EndLo: eLo, EndHi: eLo + eW}
}

// samplePoint draws a random endpoint assignment from a box.
func samplePoint(rng *rand.Rand, b VertexBox) [2]float64 {
	return [2]float64{
		b.StartLo + rng.Float64()*(b.StartHi-b.StartLo),
		b.EndLo + rng.Float64()*(b.EndHi-b.EndLo),
	}
}

// Bounds must bracket the score of every concrete assignment drawn from
// the boxes — the safety property every pruning decision rests on.
func TestQueryBoundsBracketSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	env := query.Env{Params: scoring.P1, Avg: 10}
	queries := []*query.Query{
		query.Qbb(env), query.Qoo(env), query.Qss(env), query.Qsfm(env),
		query.Qom(env), query.QjBjB(env), query.QsMsM(env),
	}
	for trial := 0; trial < 60; trial++ {
		q := queries[trial%len(queries)]
		boxes := make([]VertexBox, q.NumVertices)
		for i := range boxes {
			boxes[i] = randBox(rng)
		}
		lb, ub, _ := queryBoundsCert(q, boxes, setting{})
		if lb > ub+1e-9 {
			t.Fatalf("%s: lb %g > ub %g", q.Name, lb, ub)
		}
		for s := 0; s < 300; s++ {
			pts := make([][2]float64, len(boxes))
			for i := range pts {
				pts[i] = samplePoint(rng, boxes[i])
			}
			got := evalAt(q, pts, make([]float64, len(q.Edges)))
			if got < lb-1e-9 || got > ub+1e-9 {
				t.Fatalf("%s: sample score %g outside [%g,%g]", q.Name, got, lb, ub)
			}
		}
	}
}

// With a generous node budget the bounds should be nearly attained by an
// exhaustive grid over small boxes (tightness, not just safety). The
// 4-dimensional optimum sits at comparator-curve crossings that random
// sampling misses, so a dense grid on narrow boxes is used instead.
// tightnessPreds are the predicates the tightness and memo tests bound.
func tightnessPreds() []*scoring.Predicate {
	return []*scoring.Predicate{
		scoring.Before(scoring.P1), scoring.Meets(scoring.P1),
		scoring.Overlaps(scoring.P1), scoring.Starts(scoring.P1),
		scoring.FinishedBy(scoring.P2), scoring.Contains(scoring.P3),
	}
}

// smallBox draws a vertex box a few ramp widths across.
func smallBox(rng *rand.Rand) VertexBox {
	sLo := float64(rng.Intn(40))
	eLo := sLo + float64(rng.Intn(12))
	return VertexBox{
		StartLo: sLo, StartHi: sLo + float64(rng.Intn(8)+1),
		EndLo: eLo, EndHi: eLo + float64(rng.Intn(8)+1),
	}
}

// gridScoreRange scores p on a (gridN+1)^4 lattice over the (x, y) box
// pair and returns the lowest and highest score seen.
func gridScoreRange(p *scoring.Predicate, x, y VertexBox, gridN int) (sawLo, sawHi float64) {
	lo4 := [4]float64{x.StartLo, x.EndLo, y.StartLo, y.EndLo}
	hi4 := [4]float64{x.StartHi, x.EndHi, y.StartHi, y.EndHi}
	sawLo, sawHi = 1.0, 0.0
	var idx [4]int
	for idx[0] = 0; idx[0] <= gridN; idx[0]++ {
		for idx[1] = 0; idx[1] <= gridN; idx[1]++ {
			for idx[2] = 0; idx[2] <= gridN; idx[2]++ {
				for idx[3] = 0; idx[3] <= gridN; idx[3]++ {
					var v [4]float64
					for d := 0; d < 4; d++ {
						v[d] = lo4[d] + (hi4[d]-lo4[d])*float64(idx[d])/float64(gridN)
					}
					score := 1.0
					for _, term := range p.Terms {
						ts := term.ScoreOfDiff(term.Diff.EvalVars(v))
						if ts < score {
							score = ts
						}
					}
					sawLo, sawHi = math.Min(sawLo, score), math.Max(sawHi, score)
				}
			}
		}
	}
	return sawLo, sawHi
}

func TestPredicateBoundsTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	preds := tightnessPreds()
	const gridN = 16
	for trial := 0; trial < 30; trial++ {
		p := preds[trial%len(preds)]
		x, y := smallBox(rng), smallBox(rng)
		lb, ub := predicateBounds(p, x, y, setting{maxNodes: 20000})
		sawLo, sawHi := gridScoreRange(p, x, y, gridN)
		if sawHi > ub+1e-9 || sawLo < lb-1e-9 {
			t.Fatalf("%s: samples [%g,%g] escape bounds [%g,%g]", p.Name, sawLo, sawHi, lb, ub)
		}
		// Grid step <= 0.5 and the smallest ramp width in P1/P2/P3 is
		// ρ = 8, so the grid reaches within ~2·0.5/8 of the optimum.
		const slack = 0.13
		if ub-sawHi > slack || sawLo-lb > slack {
			t.Errorf("%s: loose bounds [%g,%g] vs grid [%g,%g] (x=%+v y=%+v)", p.Name, lb, ub, sawLo, sawHi, x, y)
		}
	}
}

// Boolean parameters (PB) make the objective a step function; bounds
// must still be safe and converge to {0, 1} values.
func TestQueryBoundsBooleanParams(t *testing.T) {
	env := query.Env{Params: scoring.PB}
	q := query.Qbb(env)
	// Clearly sequential boxes: before is certainly satisfied.
	boxes := []VertexBox{
		{StartLo: 0, StartHi: 10, EndLo: 10, EndHi: 20},
		{StartLo: 30, StartHi: 40, EndLo: 40, EndHi: 50},
		{StartLo: 60, StartHi: 70, EndLo: 70, EndHi: 80},
	}
	lb, ub, _ := queryBoundsCert(q, boxes, setting{})
	if lb != 1 || ub != 1 {
		t.Errorf("certain before: bounds [%g,%g], want [1,1]", lb, ub)
	}
	// Clearly violated: y entirely before x.
	boxes[1], boxes[0] = boxes[0], boxes[1]
	boxes[2] = VertexBox{StartLo: 0, StartHi: 5, EndLo: 5, EndHi: 9}
	lb, ub, _ = queryBoundsCert(q, boxes, setting{})
	if lb != 0 || ub != 0 {
		t.Errorf("impossible before: bounds [%g,%g], want [0,0]", lb, ub)
	}
}

// A tiny node budget must still produce safe (outer) bounds.
func TestQueryBoundsTruncatedSearchStillSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	env := query.Env{Params: scoring.P2, Avg: 9}
	q := query.Qsfm(env)
	for trial := 0; trial < 20; trial++ {
		boxes := []VertexBox{randBox(rng), randBox(rng), randBox(rng)}
		lbT, ubT, _ := queryBoundsCert(q, boxes, setting{maxNodes: 3}) // truncated
		lbF, ubF, _ := queryBoundsCert(q, boxes, setting{maxNodes: 50000})
		if ubT < ubF-1e-9 {
			t.Fatalf("truncated UB %g below converged UB %g", ubT, ubF)
		}
		if lbT > lbF+1e-9 {
			t.Fatalf("truncated LB %g above converged LB %g", lbT, lbF)
		}
	}
}

func TestPointBoxExact(t *testing.T) {
	// Zero-width boxes: the score is a single value; bounds must equal it.
	pred := scoring.Meets(scoring.PairParams{Equals: scoring.Params{Lambda: 4, Rho: 8}})
	x := VertexBox{StartLo: 10, StartHi: 10, EndLo: 20, EndHi: 20}
	y := VertexBox{StartLo: 26, StartHi: 26, EndLo: 40, EndHi: 40}
	lb, ub := predicateBounds(pred, x, y, setting{})
	want := scoring.EqualsScore(20-26, scoring.Params{Lambda: 4, Rho: 8}) // 0.75
	if math.Abs(lb-want) > 1e-9 || math.Abs(ub-want) > 1e-9 {
		t.Errorf("point bounds [%g,%g], want both %g", lb, ub, want)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := setting{}.withDefaults()
	if o.eps <= 0 || o.maxNodes <= 0 {
		t.Errorf("defaults = %+v", o)
	}
}

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what it is given back and so allocates a fresh search now and then.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// A bound solve reuses its search scratch: its allocations do not grow
// with the branch-and-bound nodes it opens (hundreds here).
func TestBoundSolveAllocBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's sync.Pool drops scratch on purpose")
	}
	pred := scoring.Starts(scoring.P1) // two terms: the generic path
	x := VertexBox{StartLo: 0, StartHi: 2500, EndLo: 0, EndHi: 2600}
	y := VertexBox{StartLo: 2500, StartHi: 5000, EndLo: 2500, EndHi: 5100}
	if allocs := testing.AllocsPerRun(50, func() { predicateBounds(pred, x, y, engineSetting) }); allocs > 8 {
		t.Errorf("predicateBounds of a two-term predicate allocates %.1f objects, want <= 8", allocs)
	}
	q := query.Qsfm(query.Env{Params: scoring.P1})
	boxes := []VertexBox{x, y, {StartLo: 4000, StartHi: 6500, EndLo: 4000, EndHi: 6600}}
	var cert Cert
	allocs := testing.AllocsPerRun(50, func() { _, _, cert = QueryBoundsCert(q, boxes) })
	if cert.Nodes < 100 {
		t.Fatalf("the 3-vertex solve opened %d nodes — too few for per-node allocation to show", cert.Nodes)
	}
	if allocs > 8 {
		t.Errorf("QueryBoundsCert over 3 vertex boxes allocates %.1f objects for %d nodes, want <= 8", allocs, cert.Nodes)
	}
}
