package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

// workPinFile holds one line per (data, shape, k) with the local join's
// deterministic work counters and a digest of its ranked results. A
// change that means to move the join's work rewrites it on purpose: on a
// mismatch the test writes what it computed beside it (workPinFile +
// ".got") for review and renaming.
const workPinFile = "testdata/work-v1.txt"

// workPinShapes are the ten Table-1 shapes, in the paper's order.
var workPinShapes = []string{"Qb,b", "Qf,f", "Qo,o", "Qs,s", "Qs,f,m", "Qf,b", "Qo,m", "Qs,m", "QjB,jB", "QsM,sM"}

// workPinSizes are the |Ci| of the pinned draws: the benchmark's
// cold_plan and warm_hit sizes, and two small ones that -short checks.
var workPinSizes, workPinShortSizes = []int{1500, 3000, 15000, 30000}, []int{1500, 3000}

// workPinLines runs every shape at P1, k = 100, g = 20 cold on one
// engine per size over 3 × Uniform (the benchmark's data draw), and
// renders each execution's work.
func workPinLines(t *testing.T, sizes []int) []string {
	t.Helper()
	const k = 100
	var lines []string
	for _, n := range sizes {
		cols := make([]*interval.Collection, 3)
		for i := range cols {
			cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), n, 4*7919+int64(i))
		}
		e, err := NewEngine(cols, Options{Granules: 20, K: k})
		if err != nil {
			t.Fatal(err)
		}
		env := query.Env{Params: scoring.P1, Avg: interval.AvgLength(cols...)}
		for _, shape := range workPinShapes {
			q, err := query.ByName(shape, env)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, shape, err)
			}
			var l join.LocalStats
			for _, s := range rep.Join.Locals {
				l.TuplesExamined += s.TuplesExamined
				l.PartialsPruned += s.PartialsPruned
				l.CombosProcessed += s.CombosProcessed
				l.CombosSkipped += s.CombosSkipped
			}
			lines = append(lines, fmt.Sprintf("n=%d %s k=%d tuples=%d pruned=%d processed=%d skipped=%d results=%d digest=%x",
				n, shape, k, l.TuplesExamined, l.PartialsPruned, l.CombosProcessed, l.CombosSkipped,
				len(rep.Results), resultsDigest(rep.Results)))
		}
	}
	return lines
}

// resultsDigest hashes a ranked result list: every score's bits and
// every tuple's IDs, in rank order.
func resultsDigest(rs []join.Result) []byte {
	var buf []byte
	for _, r := range rs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Score))
		for _, iv := range r.Tuple {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(iv.ID))
		}
	}
	sum := sha256.Sum256(buf)
	return sum[:12]
}

// The local join's work is exactly that of the code that wrote the pin:
// the same tuples examined, partials pruned and combinations processed
// and skipped, and the same ranked answer. Under -short only the small
// draws run.
func TestWorkPin(t *testing.T) {
	sizes := workPinSizes
	if testing.Short() {
		sizes = workPinShortSizes
	}
	got := workPinLines(t, sizes)
	raw, err := os.ReadFile(workPinFile)
	if err == nil && !testing.Short() && bytes.Equal(raw, []byte(strings.Join(got, "\n")+"\n")) {
		return
	}
	if !testing.Short() {
		if werr := os.WriteFile(workPinFile+".got", []byte(strings.Join(got, "\n")+"\n"), 0o644); werr != nil {
			t.Log(werr)
		}
	}
	if err != nil {
		t.Fatalf("%v; computed work written to %s.got", err, workPinFile)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i, line := range got {
		if i >= len(want) || line != want[i] {
			w := "<missing>"
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("row %d differs from the pin (full runs write the computed work to %s.got)\n got: %s\nwant: %s",
				i, workPinFile, line, w)
		}
	}
	if !testing.Short() {
		t.Fatalf("the pin holds %d rows, the run %d", len(want), len(got))
	}
}
