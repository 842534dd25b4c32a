package topbuckets_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"tkij/internal/datagen"
	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// planPinFile holds one digest line per plan, written by the code that
// defined the plan-miss path's arithmetic. A change that means to move a
// bound, a selection or an assignment rewrites it on purpose: on a
// mismatch the test writes what it computed beside it (planPinFile +
// ".got") for review and renaming.
const planPinFile = "testdata/plans-v1.txt"

// Every plan the pin covers: each shape at three ρ variants, the three
// TopBuckets strategies (brute force at a small g), each distributed by
// DTB, LPT and RoundRobin. Workers is fixed because the shard split of
// the loose enumeration decides ties between equal bounds.
func planPinLines(t *testing.T) []string {
	t.Helper()
	cols := make([]*interval.Collection, 3)
	for i := range cols {
		cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), 400, int64(101+i))
	}
	avg := interval.AvgLength(cols...)
	byG := map[int][]*stats.Matrix{}
	for _, g := range []int{4, 8} {
		ms, _, err := stats.Collect(cols, g, mapreduce.Config{})
		if err != nil {
			t.Fatal(err)
		}
		byG[g] = ms
	}
	strategies := []struct {
		s topbuckets.Strategy
		g int
	}{{topbuckets.Loose, 8}, {topbuckets.TwoPhase, 8}, {topbuckets.BruteForce, 4}}
	algs := []distribute.Algorithm{distribute.AlgDTB, distribute.AlgLPT, distribute.AlgRoundRobin}
	opts := topbuckets.Options{Workers: 4}

	var lines []string
	for _, shape := range []string{"Qo,o", "Qo,m", "Qs,f,m", "QjB,jB"} {
		for v := 0; v < 3; v++ {
			pp := scoring.P1
			pp.Equals.Rho += 8 * float64(v)
			pp.Greater.Rho += 8 * float64(v)
			q, err := query.ByName(shape, query.Env{Params: pp, Avg: avg})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range strategies {
				ms := byG[st.g]
				o := opts
				o.Strategy = st.s
				res, err := topbuckets.Run(q, ms, 50, o)
				if err != nil {
					t.Fatalf("%s v%d %s: %v", shape, v, st.s, err)
				}
				tight := append([]topbuckets.Combo(nil), res.Selected...)
				nodes := topbuckets.TightenBounds(q, ms, tight, opts)
				for _, alg := range algs {
					a, err := distribute.Assign(alg, res.Selected, 8)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("%s v%d %s %s selected=%d nodes=%d digest=%x",
						shape, v, st.s, alg, len(res.Selected), nodes, planDigest(res, tight, nodes, a)))
				}
			}
		}
	}
	return lines
}

// planDigest hashes every bit of a plan: the selected tuples with their
// bounds and result counts, kthResLB and the solver-call counts, the
// tightened bounds, and the whole assignment.
func planDigest(res *topbuckets.Result, tight []topbuckets.Combo, nodes int, a *distribute.Assignment) []byte {
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	combos := func(cs []topbuckets.Combo) {
		u(uint64(len(cs)))
		for _, c := range cs {
			for _, b := range c.Buckets {
				u(uint64(b.Col))
				u(uint64(b.StartG))
				u(uint64(b.EndG))
				u(uint64(b.Count))
			}
			f(c.LB)
			f(c.UB)
			f(c.NbRes)
		}
	}
	combos(res.Selected)
	f(res.KthResLB)
	f(res.TotalCombos)
	f(res.TotalResults)
	f(res.SelectedResults)
	u(uint64(res.PairSolverCalls))
	u(uint64(res.TightSolverCalls))
	combos(tight)
	u(uint64(nodes))
	for _, rj := range a.ComboReducer {
		u(uint64(rj))
	}
	for _, idxs := range a.ReducerCombos {
		u(uint64(len(idxs)))
		for _, ci := range idxs {
			u(uint64(ci))
		}
	}
	keys := make([]stats.BucketKey, 0, len(a.BucketReducers))
	for key := range a.BucketReducers {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.Col != y.Col {
			return x.Col < y.Col
		}
		if x.StartG != y.StartG {
			return x.StartG < y.StartG
		}
		return x.EndG < y.EndG
	})
	for _, key := range keys {
		u(uint64(key.Col))
		u(uint64(key.StartG))
		u(uint64(key.EndG))
		rs := a.BucketReducers[key]
		u(uint64(len(rs)))
		for _, rj := range rs {
			u(uint64(rj))
		}
	}
	for _, v := range a.ReducerResults {
		f(v)
	}
	f(a.ReplicatedRecords)
	sum := sha256.Sum256(buf)
	return sum[:12]
}

// The plan-miss path is bit-identical to the code that wrote the pin:
// same bounds, same selection in the same order, same assignment.
func TestPlanPin(t *testing.T) {
	got := strings.Join(planPinLines(t), "\n") + "\n"
	want, err := os.ReadFile(planPinFile)
	if err == nil && bytes.Equal(want, []byte(got)) {
		return
	}
	if werr := os.WriteFile(planPinFile+".got", []byte(got), 0o644); werr != nil {
		t.Log(werr)
	}
	if err != nil {
		t.Fatalf("%v; computed plans written to %s.got", err, planPinFile)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("plan %d differs from the pin (computed plans written to %s.got)\n got: %s\nwant: %s",
				i, planPinFile, gotLines[i], w)
		}
	}
	t.Fatalf("the pin holds %d lines, the plans %d", len(wantLines), len(gotLines))
}
