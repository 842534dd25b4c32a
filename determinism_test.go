package tkij

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// A local query is one serial pass over the plan's combinations, so its
// ranked answer — which tuples among ties, in which order — depends only
// on the index and the item order, never on scheduling. Every Table-1
// shape, run 16 times (8 under -short) down each path — planned cold, a
// plan-cache hit, through a Server with 8 concurrent Submits, and on an
// engine restored through mmap — returns the identical ranked list. The
// data sits at the score ceiling (every result scores 1), where ties are
// the most.
func TestLocalAnswerDeterministic(t *testing.T) {
	const n, k = 3000, 100
	runs := 16
	if testing.Short() {
		runs = 8
	}
	var cols []*Collection
	for i := 0; i < 3; i++ {
		cols = append(cols, Uniform(fmt.Sprintf("C%d", i+1), n, 4*7919+int64(i)))
	}
	opts := Options{Granules: 20, K: k}
	warm, err := NewEngine(cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	coldOpts := opts
	coldOpts.PlanCache.Disabled = true
	cold, err := NewEngine(cols, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	snap := filepath.Join(t.TempDir(), "det.tkij")
	if err := warm.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	mmapOpts := opts
	mmapOpts.Mmap = true
	mapped, err := OpenEngine(cols, snap, mmapOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	server := NewServer(warm, ServerOptions{})
	defer server.Close()

	for _, shape := range []string{"Qb,b", "Qf,f", "Qo,o", "Qs,s", "Qs,f,m", "Qf,b", "Qo,m", "Qs,m", "QjB,jB", "QsM,sM"} {
		q, err := QueryByName(shape, QueryEnv{Params: P1, Avg: AvgLength(cols...)})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cold.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Results) != k {
			t.Fatalf("%s: %d results, want %d", shape, len(ref.Results), k)
		}
		check := func(path string, i int, rep *Report) {
			t.Helper()
			if !reflect.DeepEqual(rep.Results, ref.Results) {
				t.Fatalf("%s: %s run %d returned a different ranked list than the first cold run", shape, path, i)
			}
		}
		for i := 0; i < runs; i++ {
			for path, e := range map[string]*Engine{"cold": cold, "plan-cache": warm, "mmap": mapped} {
				rep, err := e.Execute(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if path == "plan-cache" && i > 0 && !rep.PlanCacheHit {
					t.Fatalf("%s: run %d on the warm engine was no plan-cache hit", shape, i)
				}
				check(path, i, rep)
			}
		}
		for round := 0; round < runs/8; round++ {
			reps := make([]*Report, 8)
			var wg sync.WaitGroup
			for i := range reps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rep, err := server.Submit(context.Background(), q, nil)
					if err != nil {
						t.Error(err)
						return
					}
					reps[i] = rep
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for i, rep := range reps {
				check("server", round*8+i, rep)
			}
		}
	}
}
