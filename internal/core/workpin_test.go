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

// workRow is one pinned execution: a shape at P1 (or P2) for its top k
// over the Uniform draw of n intervals per collection.
type workRow struct {
	n     int
	shape string
	p2    bool
	k     int
}

// workPinRows are every shape at P1, k = 100, on the benchmark's
// cold_plan and warm_hit sizes and two small ones, then Qs,s under P2,
// whose k-th score falls below the ceiling and makes a pass read deep
// into its plan: k = 2,000 on 15k and 30k, and k = 20,000 on 30k. Under
// -short only the two small sizes' P1 rows and the k = 2,000 rows run.
func workPinRows(short bool) []workRow {
	sizes := []int{1500, 3000, 15000, 30000}
	if short {
		sizes = sizes[:2]
	}
	var rows []workRow
	for _, n := range sizes {
		for _, shape := range workPinShapes {
			rows = append(rows, workRow{n: n, shape: shape, k: 100})
		}
	}
	rows = append(rows, workRow{15000, "Qs,s", true, 2000}, workRow{30000, "Qs,s", true, 2000})
	if !short {
		rows = append(rows, workRow{30000, "Qs,s", true, 20000})
	}
	return rows
}

// workPinLines runs every row cold at g = 20 on one engine per size over
// 3 × Uniform (the benchmark's data draw), and renders each execution's
// work. read is the combinations the local pass read from its plan — a
// combination it never read was never built.
func workPinLines(t *testing.T, rows []workRow) []string {
	t.Helper()
	engines := map[int]*Engine{}
	avg := map[int]float64{}
	var lines []string
	for _, r := range rows {
		e := engines[r.n]
		if e == nil {
			cols := make([]*interval.Collection, 3)
			for i := range cols {
				cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), r.n, 4*7919+int64(i))
			}
			var err error
			if e, err = NewEngine(cols, Options{Granules: 20, K: 100}); err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			engines[r.n], avg[r.n] = e, interval.AvgLength(cols...)
		}
		env, params := query.Env{Params: scoring.P1, Avg: avg[r.n]}, ""
		if r.p2 {
			env.Params, params = scoring.P2, " P2"
		}
		q, err := query.ByName(r.shape, env)
		if err != nil {
			t.Fatal(err)
		}
		pin, err := e.Pin()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.ExecutePinned(context.Background(), q, []int{0, 1, 2}, pin, r.k)
		pin.Release()
		if err != nil {
			t.Fatalf("n=%d %s%s k=%d: %v", r.n, r.shape, params, r.k, err)
		}
		var l join.LocalStats
		for _, s := range rep.Join.Locals {
			l.TuplesExamined += s.TuplesExamined
			l.PartialsPruned += s.PartialsPruned
			l.CombosProcessed += s.CombosProcessed
			l.CombosAssigned += s.CombosAssigned
		}
		lines = append(lines, fmt.Sprintf("n=%d %s%s k=%d tuples=%d pruned=%d processed=%d read=%d results=%d digest=%x",
			r.n, r.shape, params, r.k, l.TuplesExamined, l.PartialsPruned, l.CombosProcessed, l.CombosAssigned,
			len(rep.Results), resultsDigest(rep.Results)))
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
// the same tuples examined, partials pruned, combinations processed and
// read, and the same ranked answer. Under -short only the rows
// workPinRows(true) names run, each checked against its pinned row.
func TestWorkPin(t *testing.T) {
	got := workPinLines(t, workPinRows(testing.Short()))
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
	// A row is named by everything before its counters.
	name := func(line string) string { return line[:strings.Index(line, " tuples=")] }
	want := map[string]string{}
	pinned := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, line := range pinned {
		want[name(line)] = line
	}
	for _, line := range got {
		if w, ok := want[name(line)]; !ok || line != w {
			if !ok {
				w = "<missing>"
			}
			t.Fatalf("a row differs from the pin (full runs write the computed work to %s.got)\n got: %s\nwant: %s",
				workPinFile, line, w)
		}
	}
	if !testing.Short() {
		t.Fatalf("the pin holds %d rows, the run %d", len(pinned), len(got))
	}
}
