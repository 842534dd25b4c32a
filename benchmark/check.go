package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"

	"tkij"
)

// The checker runs outside every timed window: the windows only keep
// each answer, and verify looks at them afterwards.

// answer is one query reply kept for checking.
type answer struct {
	key     string // shape and variant: answers sharing key and epoch must be identical
	q       *tkij.Query
	epoch   int64
	results []tkij.Result
	err     error
}

// less is the pipeline's total order: descending score, then tuple IDs.
func less(a, b tkij.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	for i := range a.Tuple {
		if a.Tuple[i].ID != b.Tuple[i].ID {
			return a.Tuple[i].ID < b.Tuple[i].ID
		}
	}
	return false
}

func digest(rs []tkij.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range rs {
		put(math.Float64bits(r.Score))
		for _, iv := range r.Tuple {
			put(uint64(iv.ID))
			put(uint64(iv.Start))
			put(uint64(iv.End))
		}
	}
	return h.Sum64()
}

// checkAnswer verifies one full-scale answer on its own: k results in
// the total order, every tuple drawn from the collections, and every
// reported score equal to Query.Score of its tuple. cols is the dataset
// as it stands at the end of the run; appends only add intervals, and
// the generator's IDs are positions, so a tuple is looked up by ID.
func checkAnswer(a answer, k int, cols []*tkij.Collection) error {
	if a.err != nil {
		return a.err
	}
	if len(a.results) != k {
		return fmt.Errorf("%s: %d results, want %d", a.key, len(a.results), k)
	}
	for i, r := range a.results {
		if i > 0 && !less(a.results[i-1], r) {
			return fmt.Errorf("%s: results %d and %d out of order", a.key, i-1, i)
		}
		if len(r.Tuple) != a.q.NumVertices {
			return fmt.Errorf("%s: result %d has %d intervals", a.key, i, len(r.Tuple))
		}
		for v, iv := range r.Tuple {
			items := cols[v].Items
			if iv.ID < 0 || iv.ID >= int64(len(items)) || items[iv.ID] != iv {
				return fmt.Errorf("%s: result %d vertex %d is not an interval of collection %d", a.key, i, v, v)
			}
		}
		if got := a.q.Score(r.Tuple); got != r.Score {
			return fmt.Errorf("%s: result %d reports score %v, re-scored %v", a.key, i, r.Score, got)
		}
	}
	return nil
}

// verify checks every kept answer and reports which passed. Answers for
// one (shape, variant, epoch) must be byte-identical.
func verify(answers []answer, k int, cols []*tkij.Collection, errs *errorLog) []bool {
	type group struct {
		key   string
		epoch int64
	}
	seen := make(map[group]uint64)
	ok := make([]bool, len(answers))
	for i, a := range answers {
		if err := checkAnswer(a, k, cols); err != nil {
			errs.add(err)
			continue
		}
		g, d := group{a.key, a.epoch}, digest(a.results)
		if prev, dup := seen[g]; dup && prev != d {
			errs.add(fmt.Errorf("%s at epoch %d: two answers differ", a.key, a.epoch))
			continue
		}
		seen[g] = d
		ok[i] = true
	}
	return ok
}

func count(ok []bool) (n int) {
	for _, v := range ok {
		if v {
			n++
		}
	}
	return n
}

// equivalent reports whether got is the top-k want is, up to ties at the
// k-th score: the same score multiset, identical above the floor, and
// every differing member at the floor re-scoring to its reported score.
// It is the strongest claim the pipeline makes between a subscription's
// pushed state and a fresh execute, whose plans differ: tuples tied at
// the floor may fall either side of the cut.
func equivalent(q *tkij.Query, got, want []tkij.Result) bool {
	if !sameScores(got, want) {
		return false
	}
	if len(want) == 0 {
		return true
	}
	floor := want[len(want)-1].Score
	for i := range got {
		if digest(got[i:i+1]) == digest(want[i:i+1]) {
			continue
		}
		if got[i].Score > floor+1e-9 || want[i].Score > floor+1e-9 || q.Score(got[i].Tuple) != got[i].Score {
			return false
		}
	}
	return true
}

// sameScores compares two result lists as score multisets, the notion
// of top-k equality that survives ties at the k-th score.
func sameScores(a, b []tkij.Result) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := make([]float64, len(a)), make([]float64, len(b))
	for i := range a {
		as[i], bs[i] = a[i].Score, b[i].Score
	}
	sort.Float64s(as)
	sort.Float64s(bs)
	for i := range as {
		if math.Abs(as[i]-bs[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// errorLog keeps the first few errors for the report.
type errorLog struct {
	n     int
	first []string
}

func (l *errorLog) add(err error) {
	l.n++
	if len(l.first) < 5 {
		l.first = append(l.first, err.Error())
	}
}

// miniature replays the workload's op kinds at a scale where
// tkij.Exhaustive can give the reference answer: every shape of the mix
// (and, on the plan-miss workload, a second variant) through Submit on a
// heap-built engine; on the mapped workload the same on an engine
// restored from a snapshot through mmap; on the live-ingest workload the
// same after appends, with the standing subscriptions compared too. It
// runs before anything is timed.
func miniature(wl *workload, sc scale, seed int64, dir string) error {
	ctx := context.Background()
	in, err := generate(seed, sc.miniN, 3, sc.miniN/10+1, wl.shapes)
	if err != nil {
		return err
	}
	opts := tkij.Options{Granules: sc.miniG, K: sc.k, Reducers: sc.reducers}
	e, err := tkij.NewEngine(in.cols, opts)
	if err != nil {
		return err
	}
	defer e.Close()
	srv := tkij.NewServer(e, tkij.ServerOptions{})
	defer srv.Close()

	var qs []*tkij.Query
	for _, s := range wl.shapes {
		qs = append(qs, in.queries[s][0])
		if wl.distinct {
			qs = append(qs, in.queries[s][in.order[0]])
		}
	}
	compare := func(stage string, srv *tkij.Server) error {
		for _, q := range qs {
			rep, err := srv.Submit(ctx, q, nil)
			if err != nil {
				return fmt.Errorf("miniature %s %s: %w", stage, q.Name, err)
			}
			want, err := tkij.Exhaustive(q, in.cols, sc.k)
			if err != nil {
				return err
			}
			if !sameScores(rep.Results, want) {
				return fmt.Errorf("miniature %s %s: answer differs from the exhaustive top-%d", stage, q.Name, sc.k)
			}
		}
		return nil
	}
	if err := compare("heap", srv); err != nil {
		return err
	}

	if wl.mapped {
		path := filepath.Join(dir, wl.name+".miniature.snap")
		if err := e.SaveSnapshot(path); err != nil {
			return err
		}
		defer os.Remove(path)
		opts.Mmap = true
		me, err := tkij.OpenEngine(in.cols, path, opts)
		if err != nil {
			return err
		}
		msrv := tkij.NewServer(me, tkij.ServerOptions{})
		err = compare("mmap", msrv)
		msrv.Close()
		me.Close()
		if err != nil {
			return err
		}
	}
	if !wl.liveIngest {
		return nil
	}

	subs, err := subscribe(ctx, srv, in.subs, sc.k)
	if err != nil {
		return err
	}
	for _, b := range in.batches {
		epoch, err := e.Append(b.col, b.ivs)
		if err != nil {
			return err
		}
		if err := awaitEpoch(subs, epoch); err != nil {
			return err
		}
	}
	if err := compare("appended", srv); err != nil {
		return err
	}
	for _, s := range subs {
		cols := in.cols
		if s.reg.mapping != nil {
			cols = []*tkij.Collection{in.cols[s.reg.mapping[0]], in.cols[s.reg.mapping[1]], in.cols[s.reg.mapping[2]]}
		}
		want, err := tkij.Exhaustive(s.reg.q, cols, sc.k)
		if err != nil {
			return err
		}
		if !sameScores(s.topk.Results, want) {
			return fmt.Errorf("miniature subscription %s differs from the exhaustive top-%d", s.reg.name, sc.k)
		}
	}
	return nil
}
