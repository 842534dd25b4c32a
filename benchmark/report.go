package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// The modes that run or read whole sets: every workload in a child
// process each (so peak_rss_mb is one workload's), the A/A mode that
// repeats sets of the same binary, and the comparison of two records.

// specFile is the benchmark's declaration, read from the directory the
// command is run in: the root of the checkout.
const specFile = "BENCHMARK.json"

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// row is one child run as kept in a -json record: the metrics the
// driver reads, and the notes — the metrics only this workload measures,
// and diagnostics.
type row struct {
	Set       int                `json:"set"`
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	Notes     map[string]measure `json:"notes"`
}

type record struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Quick   bool    `json:"quick"`
	Rows    []row   `json:"rows"`
}

// child runs one workload in a fresh process of this binary. Its table
// of metrics goes to stderr as it would by hand; the last line of its
// stdout is the driver's result and the line before it the whole row.
func child(o options, wl string, traced bool) (row, error) {
	exe, err := os.Executable()
	if err != nil {
		return row{}, err
	}
	args := []string{"-workload", wl, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-dir", o.dir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return row{}, fmt.Errorf("workload %s: %w", wl, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r row
	if len(lines) < 2 {
		return row{}, fmt.Errorf("workload %s: printed no row", wl)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r); err != nil {
		return row{}, fmt.Errorf("workload %s: row line: %w", wl, err)
	}
	return r, nil
}

func runAll(o options) error {
	sets := max(o.aa, 1)
	rec := record{Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	for set := 0; set < sets; set++ {
		// Alternate the order of the workloads from set to set, so that
		// no workload always follows the same neighbour.
		order := append([]*workload(nil), workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			// The traced run is needed once; the A/A mode runs it in the
			// first two sets to see that the counts repeat.
			for _, traced := range []bool{false, true} {
				if traced && set > 1 {
					continue
				}
				r, err := child(o, wl.name, traced)
				if err != nil {
					return err
				}
				r.Set = set
				rec.Rows = append(rec.Rows, r)
			}
		}
	}
	if o.jsonOut != "" {
		raw, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	bad := 0
	for _, r := range rec.Rows {
		if !r.Correct {
			bad++
			fmt.Printf("INCORRECT: set %d workload %s traced %v: %d of %d ops failed\n", r.Set, r.Workload, r.Traced, r.Failed, r.Attempted)
		}
	}
	if o.aa > 0 {
		over, err := printSpread(&rec)
		if err != nil {
			return err
		}
		bad += over
	}
	if bad > 0 {
		return fmt.Errorf("%d checks failed", bad)
	}
	return nil
}

// values collects one metric or note of one workload across the sets.
func (rec *record) values(wl, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range rec.Rows {
		if r.Workload != wl || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Notes[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// gated lists every (end-to-end metric, workload) pair held to a bound:
// BENCHMARK.json's metrics on every workload, then each workload's own.
func gated(sp *spec) (cells []cell) {
	for _, m := range sp.EndToEnd {
		for _, wl := range workloads {
			cells = append(cells, cell{m.Name, wl.name, m.Better, m.Bound})
		}
	}
	for _, wl := range workloads {
		for _, m := range wl.owned {
			cells = append(cells, cell{m.name, wl.name, m.better, m.bound})
		}
	}
	return cells
}

type cell struct {
	metric, workload, better string
	bound                    float64
}

// spreadOf is the distance between the quartiles over the median.
func spreadOf(xs []float64) float64 {
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}

// printSpread prints, per gated metric and workload, the median, the
// quartiles, their distance over the median and the largest relative gap
// between any two sets; holds the distance between the quartiles against
// the metric's bound, which is the test the driver makes over ten seeds;
// and checks that the exact per-layer counts repeated. It returns the
// number of spreads over their bound and of counts that did not repeat.
func printSpread(rec *record) (bad int, err error) {
	sp, err := readSpec(specFile)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%-28s %-16s %12s %12s %12s %8s %8s %6s\n", "metric", "workload", "median", "q1", "q3", "iqr/med", "max gap", "bound")
	for _, c := range gated(sp) {
		xs := rec.values(c.workload, c.metric, false)
		if len(xs) == 0 {
			bad++
			fmt.Printf("%-28s %-16s missing\n", c.metric, c.workload)
			continue
		}
		lo, hi := quantile(xs, 0), quantile(xs, 1)
		verdict := ""
		if spreadOf(xs) > c.bound {
			bad++
			verdict = "  OVER"
		}
		fmt.Printf("%-28s %-16s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n", c.metric, c.workload, median(xs),
			quantile(xs, 0.25), quantile(xs, 0.75), spreadOf(xs), ratio(hi-lo, lo), c.bound, verdict)
	}
	for _, m := range exactLayers {
		for _, wl := range workloads {
			xs := rec.values(wl.name, m, true)
			for _, x := range xs {
				if x != xs[0] {
					bad++
					fmt.Printf("NOT EXACT: %s on %s: %v\n", m, wl.name, xs)
					break
				}
			}
		}
	}
	return bad, nil
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareFiles prints, per gated metric and workload, whether the second
// record is better than the first by more than the metric's bound, worse
// by more than it, within it, or unresolved because either side's own
// spread is wider than the bound.
func compareFiles(pathA, pathB string) error {
	sp, err := readSpec(specFile)
	if err != nil {
		return err
	}
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-28s %-16s %12s %12s %8s %6s  %s\n", "metric", "workload", "a median", "b median", "change", "bound", "verdict")
	for _, c := range gated(sp) {
		xa, xb := a.values(c.workload, c.metric, false), b.values(c.workload, c.metric, false)
		if len(xa) == 0 || len(xb) == 0 {
			fmt.Printf("%-28s %-16s missing\n", c.metric, c.workload)
			worse++
			continue
		}
		ma, mb := median(xa), median(xb)
		// change is positive when b is worse.
		change := ratio(mb-ma, ma)
		if c.better == "higher" {
			change = -change
		}
		verdict := "within-bound"
		switch {
		case spreadOf(xa) > c.bound || spreadOf(xb) > c.bound:
			verdict = "unresolved"
		case change > c.bound:
			verdict = "worse"
			worse++
		case change < -c.bound:
			verdict = "better"
		}
		fmt.Printf("%-28s %-16s %12.4f %12.4f %+8.4f %6.2f  %s\n", c.metric, c.workload, ma, mb, change, c.bound, verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse or missing", worse)
	}
	return nil
}
