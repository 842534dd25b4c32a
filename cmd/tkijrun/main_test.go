package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tkij"
)

// The tests run the command itself: TestMain re-enters main() when the
// test binary is started with runMainEnv set, so every run below parses
// real flags, reads real files and exits like the installed binary.
const runMainEnv = "TKIJRUN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fixture is a small dataset on disk: three collections and an append
// batch drawn from the same range.
type fixture struct {
	dir   string
	cols  []string
	batch string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{dir: t.TempDir()}
	write := func(c *tkij.Collection) string {
		path := filepath.Join(f.dir, c.Name+".tsv")
		var buf bytes.Buffer
		if err := tkij.WriteCollection(&buf, c); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for i := 1; i <= 3; i++ {
		f.cols = append(f.cols, write(tkij.UniformRange(fmt.Sprintf("C%d", i), 400, int64(i), 4000, 1, 100)))
	}
	extra := tkij.UniformRange("X", 40, 9, 4000, 1, 100)
	for i := range extra.Items {
		extra.Items[i].ID += 100000 // distinct from C1's IDs
	}
	f.batch = write(extra)
	return f
}

// run executes tkijrun with the common query flags, then args, then the
// collection files, and returns its stdout and stderr. A non-zero exit
// fails the test.
func (f *fixture) run(t *testing.T, args []string, cols ...string) (string, string) {
	t.Helper()
	if cols == nil {
		cols = f.cols
	}
	argv := append([]string{"-query", "Qo,m", "-k", "20", "-g", "10", "-json"}, args...)
	cmd := exec.Command(os.Args[0], append(argv, cols...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tkijrun %s: %v\n%s", strings.Join(argv, " "), err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// report runs tkijrun and decodes its JSON report.
func (f *fixture) report(t *testing.T, args []string, cols ...string) jsonReport {
	t.Helper()
	out, _ := f.run(t, args, cols...)
	var jr jsonReport
	if err := json.Unmarshal([]byte(out), &jr); err != nil {
		t.Fatalf("tkijrun %v: decoding the JSON report: %v\n%s", args, err, out)
	}
	if len(jr.Results) != 20 {
		t.Fatalf("tkijrun %v: %d results, want 20", args, len(jr.Results))
	}
	return jr
}

// ranked is a report's answer in rank order: each result's score and
// tuple IDs.
func ranked(jr jsonReport) []string {
	var out []string
	for _, r := range jr.Results {
		ids := make([]int64, len(r.Tuple))
		for i, iv := range r.Tuple {
			ids[i] = iv.ID
		}
		out = append(out, fmt.Sprintf("%v %v", r.Score, ids))
	}
	return out
}

// scores is a report's answer as its sorted scores.
func scores(jr jsonReport) []float64 {
	var out []float64
	for _, r := range jr.Results {
		out = append(out, r.Score)
	}
	slices.Sort(out)
	return out
}

func outcomes(jr jsonReport) map[string]int {
	out := map[string]int{}
	for _, r := range jr.Runs {
		out[r.PlanCache]++
	}
	return out
}

func requireEqual[T any](t *testing.T, what string, got, want T) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differ\ngot:  %v\nwant: %v", what, got, want)
	}
}

// A snapshot saved by one run restores in another, on the heap and
// through mmap, and answers as the cold build did; the restores also
// agree after interleaved appends.
func TestSnapshotRestore(t *testing.T) {
	f := newFixture(t)
	snap := filepath.Join(f.dir, "stats.tkij")
	cold := f.report(t, []string{"-save-stats", snap})
	heap := f.report(t, []string{"-load-stats", snap})
	if !heap.Restored {
		t.Fatal(`heap restore does not report "restored": true`)
	}
	requireEqual(t, "heap-restored and cold scores", scores(heap), scores(cold))
	requireEqual(t, "heap-restored and cold ranked answers", ranked(heap), ranked(cold))

	out, stderr := f.run(t, []string{"-load-stats", snap, "-mmap"})
	if !strings.Contains(stderr, "mapped read-only") {
		t.Fatalf("-mmap does not report a mapped snapshot:\n%s", stderr)
	}
	var mapped jsonReport
	if err := json.Unmarshal([]byte(out), &mapped); err != nil {
		t.Fatal(err)
	}
	if !mapped.Restored {
		t.Fatal(`mmap restore does not report "restored": true`)
	}
	requireEqual(t, "mapped and heap-restored ranked answers", ranked(mapped), ranked(heap))

	appends := []string{"-repeat", "4", "-load-stats", snap, "-append", f.batch, "-append-every", "2"}
	heapAppend := f.report(t, appends)
	mappedAppend := f.report(t, append(appends, "-mmap"))
	requireEqual(t, "mapped and heap-restored ranked answers after appends", ranked(mappedAppend), ranked(heapAppend))
}

// A batch appended live and recorded as a delta section restores, with
// collection files that include it, into an engine that answers the
// same.
func TestAppendDeltaRestore(t *testing.T) {
	f := newFixture(t)
	snap := filepath.Join(f.dir, "stats.tkij")
	f.run(t, []string{"-save-stats", snap})
	ingest := f.report(t, []string{"-load-stats", snap, "-append", f.batch, "-append-delta"})
	if ingest.Epoch != 1 {
		t.Fatalf(`live append reports "epoch": %d, want 1`, ingest.Epoch)
	}
	c1, err := os.ReadFile(f.cols[0])
	if err != nil {
		t.Fatal(err)
	}
	extra, err := os.ReadFile(f.batch)
	if err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(f.dir, "C1m.tsv")
	if err := os.WriteFile(merged, append(c1, extra...), 0o644); err != nil {
		t.Fatal(err)
	}
	restored := f.report(t, []string{"-load-stats", snap}, merged, f.cols[1], f.cols[2])
	if !restored.Restored {
		t.Fatal(`base+delta restore does not report "restored": true`)
	}
	requireEqual(t, "base+delta-restored and live scores", scores(restored), scores(ingest))
}

// Repeated runs with appends interleaved are served from the plan cache
// — a hit, and a promotion across an epoch bump — and answer as the same
// runs planned cold.
func TestPlanCacheAcrossAppends(t *testing.T) {
	f := newFixture(t)
	args := []string{"-repeat", "6", "-append", f.batch, "-append-every", "2"}
	cached := f.report(t, args)
	if o := outcomes(cached); o["hit"] == 0 || o["revalidated"] == 0 {
		t.Fatalf("cached runs' plan outcomes %v, want a hit and a revalidation", o)
	}
	cold := f.report(t, append(args, "-no-plan-cache"))
	if o := outcomes(cold); o["hit"] != 0 {
		t.Fatalf("runs with the plan cache disabled report %d hits", o["hit"])
	}
	requireEqual(t, "cached and cold scores", scores(cached), scores(cold))
}

// 8 concurrent Submits per round through the Server answer exactly what
// direct execution does, and direct execution passes no server.
func TestServerMatchesDirect(t *testing.T) {
	f := newFixture(t)
	served := f.report(t, []string{"-repeat", "2", "-concurrency", "8"})
	direct := f.report(t, []string{"-repeat", "2"})
	for _, r := range direct.Runs {
		if r.Batch != 0 {
			t.Fatalf(`direct run %d reports "batch": %d`, r.Run, r.Batch)
		}
	}
	for _, r := range served.Runs {
		if r.Batch != 1 {
			t.Fatalf(`served run %d reports "batch": %d, want 1`, r.Run, r.Batch)
		}
	}
	requireEqual(t, "served and direct ranked answers", ranked(served), ranked(direct))
}

// A query on 3 in-process shard workers is distributed — the floor
// crosses the wire — and scores as the local run does.
func TestShardsMatchLocal(t *testing.T) {
	f := newFixture(t)
	sharded := f.report(t, []string{"-shards", "3"})
	local := f.report(t, nil)
	if r := sharded.Runs[0]; r.Shards != 3 || r.FloorFrames < 1 {
		t.Fatalf(`sharded run reports "shards": %d and "floor_frames": %d, want 3 and at least 1`, r.Shards, r.FloorFrames)
	}
	if r := local.Runs[0]; r.Shards != 0 {
		t.Fatalf(`local run reports "shards": %d`, r.Shards)
	}
	requireEqual(t, "sharded and local scores", scores(sharded), scores(local))
}

// A subscription fed the batch in chunks pushes, its pushes' executions
// read combinations, every pushed list equals a fresh execution (the
// run exits non-zero otherwise), and a subscriber that keeps up is never
// re-based.
func TestSubscribePushes(t *testing.T) {
	f := newFixture(t)
	jr := f.report(t, []string{"-subscribe", "-subscribe-chunks", "4", "-append", f.batch})
	st := jr.Standing
	if st == nil {
		t.Fatal("-subscribe reports no standing section")
	}
	if st.Pushes < 1 || st.ProbedCombos < 1 {
		t.Fatalf(`"pushes": %d, "probed_combos": %d, want both at least 1`, st.Pushes, st.ProbedCombos)
	}
	for _, a := range st.Appends {
		if !a.Verified {
			t.Fatalf(`append %d reports "verified": false`, a.Append)
		}
		if a.Resyncs != 0 {
			t.Fatalf(`append %d reports "resyncs": %d`, a.Append, a.Resyncs)
		}
	}
}
