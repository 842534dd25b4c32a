package main

import (
	"math"
	"regexp"
	"testing"
)

// TestQuick runs every workload at miniature sizes, untraced and traced,
// and holds the output against BENCHMARK.json: each declared metric
// appears once per declared workload with its unit and a sample count,
// each workload's own metrics appear on it, nothing fails, and the
// fixture snapshot of the restart workload is written outside every
// timed window. The traced run is made twice on one workload to see
// that the exact counts repeat.
func TestQuick(t *testing.T) {
	sp, err := readSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s declares %d workloads, the benchmark has %d", specFile, len(sp.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	dir := t.TempDir()
	const seconds = 0.3

	check := func(t *testing.T, out *outcome, declared []specMetric) {
		t.Helper()
		if out.failed != 0 || out.attempted < 1 || !out.correct() {
			t.Errorf("attempted %d failed %d correct %v: %v", out.attempted, out.failed, out.correct(), out.errors)
		}
		if len(out.metrics) != len(declared) {
			t.Errorf("%d metrics reported, %d declared", len(out.metrics), len(declared))
		}
		for _, d := range declared {
			m, ok := out.metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: declared, not reported", d.Name)
			case !name.MatchString(d.Name):
				t.Errorf("%s: not a metric name", d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: value %v", d.Name, m.Value)
			case m.Samples < 1 && m.Value != 0:
				t.Errorf("%s: value %v from no samples", d.Name, m.Value)
			}
		}
	}

	for _, w := range sp.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Fatalf("%s declares workload %q, the benchmark has none", specFile, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			out, err := runEndToEnd(wl, quickScale, 1, seconds, dir)
			if err != nil {
				t.Fatal(err)
			}
			check(t, out, sp.EndToEnd)
			for _, d := range sp.EndToEnd {
				if out.metrics[d.Name].Value == 0 {
					t.Errorf("%s is 0", d.Name)
				}
			}
			for _, m := range wl.owned {
				if n := out.notes[m.name]; n.Value <= 0 || n.Unit != m.unit || n.Samples < 1 {
					t.Errorf("%s: the workload's own metric reads %+v", m.name, n)
				}
			}
			saved := false
			for _, p := range out.timeline {
				if p.name != "snapshot.save" {
					continue
				}
				saved = true
				for _, q := range out.timeline {
					if q.timed && q.start.Before(p.end) && p.start.Before(q.end) {
						t.Errorf("the fixture snapshot is written inside the timed %s window", q.name)
					}
				}
			}
			if saved != wl.mapped {
				t.Errorf("fixture snapshot written: %v, on a workload that restores: %v", saved, wl.mapped)
			}

			traced, err := runTraced(wl, quickScale, 1, seconds, dir)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced, sp.PerLayer)
			if !wl.liveIngest {
				return
			}
			again, err := runTraced(wl, quickScale, 1, seconds, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range exactLayers {
				if a, b := traced.metrics[m].Value, again.metrics[m].Value; a != b {
					t.Errorf("%s did not repeat for one seed: %v then %v", m, a, b)
				}
			}
		})
	}
}
