package core

import (
	"context"
	"math/rand"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

func synthCols(n, perCol int, seed int64) []*interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, n)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(3000)
			c.Add(interval.Interval{ID: int64(i*1000000 + j), Start: s, End: s + 1 + rng.Int63n(90)})
		}
		cols[i] = c
	}
	return cols
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Error("no collections accepted")
	}
	if _, err := NewEngine([]*interval.Collection{{Name: "e"}}, Options{}); err == nil {
		t.Error("empty collection accepted")
	}
	bad := &interval.Collection{Name: "b", Items: []interval.Interval{{Start: 5, End: 1}}}
	if _, err := NewEngine([]*interval.Collection{bad}, Options{}); err == nil {
		t.Error("invalid interval accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	e, err := NewEngine(synthCols(1, 10, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := e.Options()
	// Reducers has no default: it shapes only a sharded engine's
	// scatter, which runs one reducer per shard worker when it is unset.
	if o.Granules != 40 || o.K != 100 || o.Reducers != 0 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestExecuteMatchesExhaustive(t *testing.T) {
	cols := synthCols(3, 35, 5)
	env := query.Env{Params: scoring.P1}
	q := query.Qom(env)
	const k = 12
	e, err := NewEngine(cols, Options{Granules: 6, K: k, Reducers: 5})
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := join.Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	if !join.ScoreMultisetEqual(report.Results, exact, 1e-9) {
		t.Fatal("engine top-k != exhaustive")
	}
	if report.TopBuckets == nil || report.Join == nil {
		t.Fatal("report missing phase details")
	}
	// Reducers shapes no local query: it is one reducer, which read
	// exactly the combinations its cold plan built, and assigned nothing.
	if len(report.Join.Locals) != 1 || report.Join.Locals[0].CombosAssigned != report.TopBuckets.Len() ||
		report.TopBuckets.Len() > len(report.TopBuckets.Drain()) {
		t.Fatalf("a local query ran %d reducers (first read %d of %d combinations built), want one that read what was built",
			len(report.Join.Locals), report.Join.Locals[0].CombosAssigned, report.TopBuckets.Len())
	}
	if report.DistributeTime != 0 || report.Join.RoutedBucketEntries != 0 {
		t.Fatalf("a local query reports distribute time %v and %d routed references, want none",
			report.DistributeTime, report.Join.RoutedBucketEntries)
	}
	if report.Total <= 0 {
		t.Error("Total not recorded")
	}
	if e.StatsDuration <= 0 || e.StatsMetrics == nil {
		t.Error("offline stats metrics missing")
	}
}

// Self-join via mapping: three vertices over the same collection, the
// §4.3.1 setup.
func TestExecuteMappedSelfJoin(t *testing.T) {
	cols := synthCols(1, 40, 8)
	avg := interval.AvgLength(cols[0])
	env := query.Env{Params: scoring.P3, Avg: avg}
	q := query.QjBjB(env)
	const k = 10
	e, err := NewEngine(cols, Options{Granules: 6, K: k, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.ExecuteMapped(context.Background(), q, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := join.Exhaustive(q, []*interval.Collection{cols[0], cols[0], cols[0]}, k)
	if err != nil {
		t.Fatal(err)
	}
	if !join.ScoreMultisetEqual(report.Results, exact, 1e-9) {
		t.Fatal("self-join top-k != exhaustive")
	}
}

func TestExecuteMappedErrors(t *testing.T) {
	cols := synthCols(2, 20, 3)
	e, err := NewEngine(cols, Options{Granules: 4, K: 5, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Qbb(query.Env{Params: scoring.P1})
	if _, err := e.ExecuteMapped(context.Background(), q, []int{0, 1}); err == nil {
		t.Error("short mapping accepted")
	}
	if _, err := e.ExecuteMapped(context.Background(), q, []int{0, 1, 7}); err == nil {
		t.Error("out-of-range mapping accepted")
	}
}

// Stats are collected once and reused across queries.
func TestStatsReuse(t *testing.T) {
	cols := synthCols(3, 30, 6)
	e, err := NewEngine(cols, Options{Granules: 5, K: 5, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PrepareStats(); err != nil {
		t.Fatal(err)
	}
	first := e.Matrices()
	env := query.Env{Params: scoring.P1}
	if _, err := e.Execute(context.Background(), query.Qbb(env)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), query.Qoo(env)); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if e.Matrices()[i] != first[i] {
			t.Fatal("matrices recomputed between queries")
		}
	}
}

// Every engine configuration agrees on the answer: the plan cache on or
// off, one reducer or eight, local or over two shard workers. (The
// TopBuckets strategies agree too: join.TestStrategiesAgree; and every
// distribution algorithm's reducers: distribute.TestGatherEveryReducer.)
func TestConfigurationsAgree(t *testing.T) {
	cols := synthCols(3, 30, 10)
	env := query.Env{Params: scoring.P2, Avg: 45}
	q := query.Qss(env)
	const k = 8
	want, err := join.Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"no plan cache", Options{PlanCache: plancache.Options{Disabled: true}}},
		{"eight reducers", Options{Reducers: 8}},
		{"two shards", Options{Shards: 2}},
	} {
		c.opts.Granules, c.opts.K = 4, k
		e, err := NewEngine(cols, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		report, err := e.Execute(context.Background(), q)
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !join.ScoreMultisetEqual(report.Results, want, 1e-9) {
			t.Fatalf("%s disagrees with the exhaustive answer", c.name)
		}
	}
}
