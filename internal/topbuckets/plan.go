package topbuckets

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
)

// Plan is Ω_k,S as a stream in the join's access order: descending UB,
// ties by bucket tuple. The join reads it one combination at a time and
// stops at the first UB that cannot beat its k-th result, so a plan
// builds only the prefix some reader asked for.
//
// A plan built by NewPlan starts from one enclosure pass per query edge
// (a table of every bucket pair's enclosure: lo is the pair's LB, hi its
// UB or an admissible bound on it, see solver.PairEnclosure). From the
// tables it derives:
//
//   - kthResLB and the cover H, by a best-first walk in (LB desc, bucket
//     tuple desc) order that stops once the covered results reach k;
//   - Ω_k,S on demand, by a best-first walk in (UB desc, bucket tuple
//     asc) order over partial bucket tuples, bounded by the tables' row
//     and column maxima. A full tuple whose bound is not yet exact solves
//     its pairs (solver.PairBounds) when it reaches the top and is queued
//     again at its exact UB. After every combination with UB > kthResLB
//     come H's members at UB = kthResLB, in the same order.
//
// Every combination carries the LB/UB bits the pair tables of Algorithm
// 2 give it, so the stream drained equals SelectWithThreshold over Ω
// bounded by LooseBounds, in order.
//
// Safe for concurrent use: the materialized prefix is read without a
// lock or an allocation, and extending it takes the plan's mutex.
type Plan struct {
	// KthResLB is the certified lower bound on the k-th result's score
	// (Algorithm 1's kthResLB): the join's starting floor.
	KthResLB float64
	// TotalCombos is |Ω|; TotalResults is the number of candidate tuples
	// in Ω.
	TotalCombos, TotalResults float64
	// Cells is the number of bucket-pair enclosures the plan's tables
	// hold, one solver enclosure each.
	Cells int
	// Built is the wall time NewPlan took: the tables, the cover, and the
	// walk's start.
	Built time.Duration

	read atomic.Pointer[prefix]
	mu   sync.Mutex
	// src yields the combinations after the materialized prefix; nil
	// once it is exhausted (and for a listed plan).
	src stream
	// searched is the number of pair bounds the walk has solved by
	// search, and buf the materialized prefix with room to grow (both
	// guarded by mu). Readers see buf clipped to its
	// length, so appending never writes an element they can read.
	searched int
	buf      []Combo
}

// prefix is a plan's materialized combinations and the bound of the
// rest, published together.
type prefix struct {
	combos []Combo
	// bound is an upper bound on the UB of every combination after
	// combos, -Inf when there is none.
	bound float64
	done  bool
}

// stream is a plan's source of combinations in plan order.
type stream interface {
	// next returns the next combination; ok is false at the end.
	next() (c Combo, ok bool)
	// bound is an upper bound on the UB of every combination next has
	// not returned, -Inf when there is none.
	bound() float64
}

// NewPlan builds the plan of query q for its top k over the per-vertex
// matrices: the pair tables, kthResLB and the start of the UB walk. No
// combination is built until one is read.
func NewPlan(q *query.Query, matrices []*stats.Matrix, k int) (*Plan, error) {
	lists, err := validateInputs(q, matrices, k)
	if err != nil {
		return nil, err
	}
	if total := comboCount(lists); total > 1<<62 {
		return nil, fmt.Errorf("topbuckets: |Ω| = %g bucket combinations is past the walk's 2^62", total)
	}
	start := time.Now()
	w := newWalk(q, matrices, lists)
	w.coverK(float64(k))
	w.startUB()
	p := &Plan{
		KthResLB:    w.floor,
		TotalCombos: comboCount(lists),
		Cells:       w.cells,
		src:         w,
	}
	// Every tuple falls in exactly one bucket combination.
	p.TotalResults = 1
	for _, m := range matrices {
		p.TotalResults *= float64(m.Total())
	}
	p.read.Store(&prefix{bound: w.bound()})
	p.searched = w.searches
	p.Built = time.Since(start)
	return p, nil
}

// Listed returns the plan that reads combos in descending-UB order:
// combos itself when it already is in that order, else a stably sorted
// copy. Its combinations are all materialized; KthResLB and the totals
// are zero.
func Listed(combos []Combo) *Plan {
	if !slices.IsSortedFunc(combos, byDescendingUB) {
		combos = slices.Clone(combos)
		slices.SortStableFunc(combos, byDescendingUB)
	}
	p := new(Plan)
	p.read.Store(&prefix{combos: combos[:len(combos):len(combos)], bound: math.Inf(-1), done: true})
	return p
}

func byDescendingUB(a, b Combo) int { return cmp.Compare(b.UB, a.UB) }

// Relabel returns p read in another vertex labeling: combination i of
// the result is combination i of p with its bucket tuple permuted by
// sigma (vertex v takes p's vertex sigma[v], its Col rewritten to v).
// Bounds, counts and kthResLB carry over. A nil sigma returns p.
func (p *Plan) Relabel(sigma []int) *Plan {
	if sigma == nil {
		return p
	}
	r := &relabel{base: p, sigma: sigma}
	np := &Plan{KthResLB: p.KthResLB, TotalCombos: p.TotalCombos, TotalResults: p.TotalResults,
		Cells: p.Cells, Built: p.Built, src: r}
	np.read.Store(&prefix{bound: r.bound()})
	return np
}

// At returns the i-th combination of the plan, building it (and every
// one before it) if no reader has yet; ok is false past the end.
func (p *Plan) At(i int) (c Combo, ok bool) {
	r := p.read.Load()
	if i >= len(r.combos) {
		r = p.extend(i + 1)
	}
	if i < len(r.combos) {
		return r.combos[i], true
	}
	return Combo{}, false
}

// Bound returns an upper bound on the UB of every combination at
// position i or later: combination i's UB once it is built, the walk's
// frontier before, and -Inf past the end. It builds nothing at or after
// position i.
func (p *Plan) Bound(i int) float64 {
	r := p.read.Load()
	if i > len(r.combos) {
		r = p.extend(i)
	}
	if i < len(r.combos) {
		return r.combos[i].UB
	}
	if i > len(r.combos) {
		return math.Inf(-1)
	}
	return r.bound
}

// Drain builds the rest of the plan and returns all of Ω_k,S in plan
// order. The slice is shared by every reader: treat it as read-only.
func (p *Plan) Drain() []Combo {
	r := p.read.Load()
	if !r.done {
		r = p.extend(math.MaxInt)
	}
	return r.combos
}

// Len is the number of combinations built so far.
func (p *Plan) Len() int { return len(p.read.Load().combos) }

// Searches is the number of pair bounds the plan has solved by search
// so far (the shared-variable maxima whose enclosure is not exact).
func (p *Plan) Searches() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.searched
}

// extend builds the plan to at least n combinations, or to its end, and
// publishes the longer prefix.
func (p *Plan) extend(n int) *prefix {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.read.Load()
	if len(r.combos) >= n || r.done {
		return r
	}
	w, walking := p.src.(*walk)
	if walking && n == math.MaxInt {
		w.presolve()
	}
	combos := p.buf
	done := false
	for len(combos) < n {
		c, ok := p.src.next()
		if !ok {
			done = true
			break
		}
		combos = append(combos, c)
	}
	p.buf = combos
	nr := &prefix{combos: combos[:len(combos):len(combos)], bound: math.Inf(-1), done: done}
	if walking {
		p.searched = w.searches
	}
	if !done {
		nr.bound = p.src.bound()
	} else {
		p.src = nil // the walk's heap and tables go with it
	}
	p.read.Store(nr)
	return nr
}

// relabel is a plan read through a vertex permutation.
type relabel struct {
	base  *Plan
	sigma []int
	i     int
	slab  []stats.Bucket
}

func (r *relabel) next() (Combo, bool) {
	c, ok := r.base.At(r.i)
	if !ok {
		return Combo{}, false
	}
	r.i++
	var bs []stats.Bucket
	bs, r.slab = carve(r.slab, len(c.Buckets))
	for v := range bs {
		b := c.Buckets[r.sigma[v]]
		b.Col = v
		bs[v] = b
	}
	c.Buckets = bs
	return c, true
}

func (r *relabel) bound() float64 { return r.base.Bound(r.i) }

// carve cuts an n-bucket tuple off the front of slab, refilling it with
// room for a run of tuples when it runs out, so that building a prefix
// allocates per run rather than per combination.
func carve(slab []stats.Bucket, n int) (tuple, rest []stats.Bucket) {
	if len(slab) < n {
		slab = make([]stats.Bucket, 64*n)
	}
	return slab[:n:n], slab[n:]
}

// Sides of a pair table: the LB walk reads lo, the UB walk hi.
const (
	lo = iota
	hi
)

// pairTable is one query edge's bounds over every bucket pair of its two
// collections: cell i*width+j pairs bucket i of the From list with
// bucket j of the To list.
type pairTable struct {
	e     query.Edge
	width int
	// cells[lo] is every pair's LB. cells[hi] is its UB where
	// solved[cell] is set (or solved is nil: the predicate's enclosure is
	// exact), and the enclosure's hi — an upper bound on that UB — until
	// then.
	cells  [2][]float64
	solved []bool
	// The maxima of each side per From position (row), per To position
	// (col) and overall: bounds of an edge one or both of whose vertices
	// a partial tuple leaves open. They are taken over the enclosure and
	// stay admissible as cells are solved.
	row, col [2][]float64
	max      [2]float64
	from, to []solver.VertexBox
}

// cell is the index of the pair of the From and To buckets at the given
// tuple positions.
func (t *pairTable) cell(pos []int32) int {
	return int(pos[t.e.From])*t.width + int(pos[t.e.To])
}

// node is a partial bucket tuple in a walk's queue: its first depth
// vertices are fixed at the positions rank encodes — the row-major
// position in Ω of its first completion — and key bounds the walk's
// order bound (LB or UB) of every completion. exact marks a full tuple
// whose key is its bound itself.
type node struct {
	key  float64
	rank uint64
	// tie orders nodes of equal key, smaller first: the rank in the UB
	// walk, so that ties go by bucket tuple, smallest first; in the LB
	// walk the complement of the last completion's rank, so that they go
	// largest first.
	tie   uint64
	depth int32
	exact bool
}

// walk is a best-first walk over the bucket tuples of Ω: first in LB
// order (the cover), then in UB order (the stream of a NewPlan plan).
type walk struct {
	q      *query.Query
	lists  [][]stats.Bucket
	tables []pairTable
	cells  int
	// stride[v] is the row-major weight of vertex v's position.
	stride []uint64
	vals   []float64 // per-edge scratch for Aggregate
	pos    []int32   // position scratch

	side int // lo or hi: the bound the walk orders by
	heap []node

	// floor is kthResLB; the UB walk drops every node at or below it.
	floor float64
	// cover is H, the ranks of its members, in LB order.
	cover []uint64
	// tail is H's members at UB <= floor in plan order, built when the
	// UB walk runs dry; tailAt is the next one to return.
	tail     []Combo
	tailAt   int
	tailDone bool

	searches int
	slab     []stats.Bucket
}

// newWalk builds the pair tables: one enclosure per bucket pair per
// edge.
func newWalk(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket) *walk {
	n := len(lists)
	w := &walk{q: q, lists: lists, tables: make([]pairTable, len(q.Edges)),
		stride: make([]uint64, n), vals: make([]float64, len(q.Edges)), pos: make([]int32, n)}
	stride := uint64(1)
	for v := n - 1; v >= 0; v-- {
		w.stride[v] = stride
		stride *= uint64(len(lists[v]))
	}
	for ei, e := range q.Edges {
		t := &w.tables[ei]
		t.e, t.width = e, len(lists[e.To])
		t.from = boxes(matrices[e.From].Grid(), lists[e.From])
		t.to = boxes(matrices[e.To].Grid(), lists[e.To])
		exact := true
		for side := range t.cells {
			t.cells[side] = make([]float64, len(t.from)*len(t.to))
			t.row[side], t.col[side] = filled(len(t.from)), filled(len(t.to))
			t.max[side] = math.Inf(-1)
		}
		for i, x := range t.from {
			for j, y := range t.to {
				var b [2]float64
				b[lo], b[hi], exact = solver.PairEnclosure(e.Pred, x, y)
				for side, v := range b {
					t.cells[side][i*t.width+j] = v
					t.row[side][i], t.col[side][j] = max(t.row[side][i], v), max(t.col[side][j], v)
					t.max[side] = max(t.max[side], v)
				}
			}
		}
		if !exact {
			t.solved = make([]bool, len(t.cells[hi]))
		}
		w.cells += len(t.cells[hi])
	}
	return w
}

func boxes(g stats.Grid, list []stats.Bucket) []solver.VertexBox {
	out := make([]solver.VertexBox, len(list))
	for i, b := range list {
		out[i] = BoxOf(g, b)
	}
	return out
}

// filled returns n slots at -Inf, the identity of max.
func filled(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Inf(-1)
	}
	return s
}

// key aggregates, for a bucket tuple whose vertices are fixed at the
// positions pos holds (-1 leaves a vertex open), each edge's bound on
// side — its cell where both vertices are fixed, the row, column or
// table maximum where they are not. Aggregation is monotone, so the key
// bounds every completion's bound, and for a full tuple it is that
// bound, computed as Algorithm 2 does.
func (w *walk) key(pos []int32, side int) float64 {
	for ei := range w.tables {
		t := &w.tables[ei]
		from, to := pos[t.e.From], pos[t.e.To]
		switch {
		case from >= 0 && to >= 0:
			w.vals[ei] = t.cells[side][t.cell(pos)]
		case from >= 0:
			w.vals[ei] = t.row[side][from]
		case to >= 0:
			w.vals[ei] = t.col[side][to]
		default:
			w.vals[ei] = t.max[side]
		}
	}
	return w.q.Agg.Aggregate(w.vals)
}

// exact reports whether every cell of the full tuple at pos holds its
// UB.
func (w *walk) exact(pos []int32) bool {
	for ei := range w.tables {
		if t := &w.tables[ei]; t.solved != nil && !t.solved[t.cell(pos)] {
			return false
		}
	}
	return true
}

// solve searches the UB of every cell of the full tuple at pos that
// does not hold it yet.
func (w *walk) solve(pos []int32) {
	for ei := range w.tables {
		t := &w.tables[ei]
		if c := t.cell(pos); t.solved != nil && !t.solved[c] {
			_, t.cells[hi][c] = solver.PairBounds(t.e.Pred, t.from[pos[t.e.From]], t.to[pos[t.e.To]])
			t.solved[c] = true
			w.searches++
		}
	}
}

// presolve searches, in parallel, the UB of every unsolved cell that a
// tuple whose enclosure clears the floor can use — the cells a drain
// would otherwise search one by one as the walk reaches them. The bounds
// are the ones the walk would find, so the drain's output is the same.
func (w *walk) presolve() {
	type job struct {
		t *pairTable
		c int
	}
	var jobs []job
	pos := w.open(0)
	for ei := range w.tables {
		t := &w.tables[ei]
		for c := range t.solved {
			pos[t.e.From], pos[t.e.To] = int32(c/t.width), int32(c%t.width)
			if !t.solved[c] && w.key(pos, hi) > w.floor {
				jobs = append(jobs, job{t, c})
			}
			pos[t.e.From], pos[t.e.To] = -1, -1
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every cell is one job's: the goroutines write disjoint
			// elements.
			for i := g; i < len(jobs); i += workers {
				t, c := jobs[i].t, jobs[i].c
				_, t.cells[hi][c] = solver.PairBounds(t.e.Pred, t.from[c/t.width], t.to[c%t.width])
				t.solved[c] = true
			}
		}()
	}
	wg.Wait()
	w.searches += len(jobs)
}

// open returns w.pos with every vertex from d on left open.
func (w *walk) open(d int) []int32 {
	for v := d; v < len(w.pos); v++ {
		w.pos[v] = -1
	}
	return w.pos
}

// decode writes into w.pos the first d positions of the tuple at rank,
// leaving the rest open.
func (w *walk) decode(rank uint64, d int) []int32 {
	pos := w.open(d)
	for v := 0; v < d; v++ {
		pos[v] = int32(rank / w.stride[v] % uint64(len(w.lists[v])))
	}
	return pos
}

// push queues a node.
func (w *walk) push(nd node) {
	w.heap = append(w.heap, nd)
	w.up(len(w.heap) - 1)
}

// expand queues every one-vertex extension of the partial tuple nd: in
// the UB walk only those whose key clears the floor.
func (w *walk) expand(nd node) {
	d := int(nd.depth)
	pos := w.decode(nd.rank, d)
	full := d+1 == len(w.lists)
	for j := range w.lists[d] {
		pos[d] = int32(j)
		key := w.key(pos, w.side)
		if w.side == hi && !(key > w.floor) {
			continue
		}
		rank := nd.rank + uint64(j)*w.stride[d]
		tie := rank
		if w.side == lo {
			tie = ^(rank + w.stride[d] - 1)
		}
		w.push(node{key: key, rank: rank, tie: tie, depth: int32(d + 1),
			exact: full && (w.side == lo || w.exact(pos))})
	}
}

// pop removes and returns the first node of the walk's order.
func (w *walk) pop() node {
	h := w.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	w.heap = h[:last]
	w.down(0)
	return top
}

// before is the walk's order: larger key first, then the smaller tie.
// lists hold each collection's buckets in tuple order, so ranks compare
// as compareTuples does, and the nodes of one walk are disjoint
// subtrees of Ω: a partial tuple's first completion orders it before
// every full tuple above it and after every one below, and so does its
// last completion in the LB walk's descending order.
func before(a, b node) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.tie < b.tie
}

func (w *walk) up(j int) {
	h := w.heap
	for j > 0 {
		i := (j - 1) / 2
		if !before(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (w *walk) down(i int) {
	h := w.heap
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && before(h[r], h[j]) {
			j = r
		}
		if !before(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// coverK walks Ω by (LB desc, bucket tuple desc) until the results of
// the tuples taken reach k — Algorithm 1's cover H, ties in LB taken
// largest tuple first (select.go) — and sets floor to kthResLB, the last
// LB taken. When Ω holds fewer than k results, H is all of Ω and
// kthResLB its least LB.
func (w *walk) coverK(k float64) {
	w.side = lo
	n := len(w.lists)
	w.push(node{key: w.key(w.open(0), lo)})
	covered := 0.0
	for len(w.heap) > 0 && covered < k {
		nd := w.pop()
		if int(nd.depth) < n {
			w.expand(nd)
			continue
		}
		w.cover = append(w.cover, nd.rank)
		w.floor = nd.key
		covered += w.nbRes(w.decode(nd.rank, n))
	}
	w.heap = w.heap[:0]
}

// startUB queues the root of the UB walk.
func (w *walk) startUB() {
	w.side = hi
	if key := w.key(w.open(0), hi); key > w.floor {
		w.push(node{key: key})
	}
}

func (w *walk) nbRes(pos []int32) float64 {
	r := 1.0
	for v, p := range pos {
		r *= float64(w.lists[v][p].Count)
	}
	return r
}

// combo builds the combination at full-tuple positions pos with UB ub.
func (w *walk) combo(pos []int32, ub float64) Combo {
	var bs []stats.Bucket
	bs, w.slab = carve(w.slab, len(pos))
	for v, p := range pos {
		bs[v] = w.lists[v][p]
	}
	return Combo{Buckets: bs, LB: w.key(pos, lo), UB: ub, NbRes: w.nbRes(pos)}
}

// next returns the next combination of the UB walk: the queue's first
// full tuple once its key is exact, and after the queue runs dry H's
// members at UB <= kthResLB.
func (w *walk) next() (Combo, bool) {
	n := len(w.lists)
	for len(w.heap) > 0 {
		nd := w.pop()
		switch {
		case int(nd.depth) < n:
			w.expand(nd)
		case !nd.exact:
			// The enclosure bounded this tuple; solve it and queue it
			// again at its exact UB, unless that no longer clears the
			// floor.
			pos := w.decode(nd.rank, n)
			w.solve(pos)
			if key := w.key(pos, hi); key > w.floor {
				nd.key, nd.exact = key, true
				w.push(nd)
			}
		default:
			return w.combo(w.decode(nd.rank, n), nd.key), true
		}
	}
	w.buildTail()
	if w.tailAt < len(w.tail) {
		w.tailAt++
		return w.tail[w.tailAt-1], true
	}
	return Combo{}, false
}

func (w *walk) bound() float64 {
	if len(w.heap) > 0 {
		return w.heap[0].key
	}
	w.buildTail()
	if w.tailAt < len(w.tail) {
		return w.tail[w.tailAt].UB
	}
	return math.Inf(-1)
}

// buildTail builds, once, H's members whose UB does not clear kthResLB
// — the UB walk dropped them — in plan order.
func (w *walk) buildTail() {
	if w.tailDone {
		return
	}
	w.tailDone = true
	n := len(w.lists)
	for _, rank := range w.cover {
		pos := w.decode(rank, n)
		w.solve(pos)
		if ub := w.key(pos, hi); !(ub > w.floor) {
			w.tail = append(w.tail, w.combo(pos, ub))
		}
	}
	slices.SortFunc(w.tail, byUB)
}
