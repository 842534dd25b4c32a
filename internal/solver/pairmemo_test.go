package solver

import (
	"math/rand"
	"sync"
	"testing"

	"tkij/internal/scoring"
)

// memoCase is one (predicate, box pair) the memo tests ask for.
type memoCase struct {
	pred *scoring.Predicate
	sig  string
	x, y VertexBox
}

func memoCases(rng *rand.Rand, n int) []memoCase {
	preds := tightnessPreds()
	cases := make([]memoCase, n)
	for i := range cases {
		p := preds[i%len(preds)]
		cases[i] = memoCase{pred: p, sig: p.Signature(), x: smallBox(rng), y: smallBox(rng)}
	}
	return cases
}

func (c memoCase) ask(m *PairMemo) (lb, ub float64, solved bool) {
	return m.Bounds(c.pred, c.sig, c.x, c.y)
}

// Equal keys return the stored pair without a solve — also when the key
// comes from a different predicate value with the same signature — and a
// widened box is a different key.
func TestPairMemoKeyIsTheSolverInput(t *testing.T) {
	m := NewPairMemo()
	for _, c := range memoCases(rand.New(rand.NewSource(5)), 24) {
		lb, ub, solved := c.ask(m)
		if !solved {
			t.Fatalf("%s: first request did not solve", c.pred.Name)
		}
		if wantLB, wantUB := PairBounds(c.pred, c.x, c.y); lb != wantLB || ub != wantUB {
			t.Fatalf("%s: memo returned [%g,%g], PairBounds [%g,%g]", c.pred.Name, lb, ub, wantLB, wantUB)
		}
		twin := *c.pred
		twin.Name = "same scoring, other name"
		if lb2, ub2, solved := m.Bounds(&twin, twin.Signature(), c.x, c.y); solved || lb2 != lb || ub2 != ub {
			t.Fatalf("%s: equal key answered [%g,%g] solved=%t, want the stored [%g,%g] unsolved",
				c.pred.Name, lb2, ub2, solved, lb, ub)
		}
		wide := c
		wide.y.EndHi += 3
		if _, _, solved := wide.ask(m); !solved {
			t.Fatalf("%s: a widened box was answered from the narrower box's entry", c.pred.Name)
		}
	}
	if got := m.Len(); got != 48 {
		t.Fatalf("memo holds %d entries after 24 keys and their 24 widenings, want 48", got)
	}
}

// Next answers from exactly one generation back and keeps only what the
// new generation asks for.
func TestPairMemoNextKeepsOneGenerationBack(t *testing.T) {
	cases := memoCases(rand.New(rand.NewSource(6)), 12)
	gen0 := NewPairMemo()
	for _, c := range cases {
		c.ask(gen0)
	}
	gen1 := gen0.Next()
	if gen1.Len() != 0 {
		t.Fatalf("a fresh generation starts with %d entries, want 0", gen1.Len())
	}
	for _, c := range cases[:4] {
		if _, _, solved := c.ask(gen1); solved {
			t.Fatal("generation 1 re-solved a key generation 0 holds")
		}
	}
	if _, _, solved := cases[0].ask(gen1); solved {
		t.Fatal("a key carried into generation 1 was solved on its second request")
	}
	if gen1.Len() != 4 {
		t.Fatalf("generation 1 holds %d entries after asking for 4 keys, want 4", gen1.Len())
	}
	gen2 := gen1.Next()
	if _, _, solved := cases[1].ask(gen2); solved {
		t.Fatal("generation 2 re-solved a key generation 1 carried")
	}
	if _, _, solved := cases[8].ask(gen2); !solved {
		t.Fatal("generation 2 answered a key only generation 0 held: more than one generation is kept alive")
	}
	if gen0.Len() != len(cases) {
		t.Fatalf("succession changed generation 0: %d entries, want %d", gen0.Len(), len(cases))
	}
}

// Sixteen goroutines ask one memo for overlapping keys (run under -race):
// every answer is the solver's, whoever stored it.
func TestPairMemoConcurrentOverlappingKeys(t *testing.T) {
	cases := memoCases(rand.New(rand.NewSource(7)), 40)
	type bounds struct{ lb, ub float64 }
	want := make([]bounds, len(cases))
	for i, c := range cases {
		want[i].lb, want[i].ub = PairBounds(c.pred, c.x, c.y)
	}
	m := NewPairMemo().Next() // exercise the carry-over path's store too
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range cases {
					j := (i + g*5) % len(cases)
					if lb, ub, _ := cases[j].ask(m); lb != want[j].lb || ub != want[j].ub {
						t.Errorf("goroutine %d: key %d answered [%g,%g], want [%g,%g]", g, j, lb, ub, want[j].lb, want[j].ub)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != len(cases) {
		t.Fatalf("memo holds %d entries for %d distinct keys", m.Len(), len(cases))
	}
}

// Every pair the memo returns — solved, stored, or carried over a
// generation — brackets the scores sampled from its boxes.
func TestPairMemoBoundsBracketSamples(t *testing.T) {
	cases := memoCases(rand.New(rand.NewSource(8)), 18)
	m := NewPairMemo()
	for pass := 0; pass < 3; pass++ {
		if pass == 2 {
			m = m.Next()
		}
		for _, c := range cases {
			lb, ub, _ := c.ask(m)
			sawLo, sawHi := gridScoreRange(c.pred, c.x, c.y, 8)
			if sawHi > ub+1e-9 || sawLo < lb-1e-9 {
				t.Fatalf("pass %d, %s: samples [%g,%g] escape memoized bounds [%g,%g]", pass, c.pred.Name, sawLo, sawHi, lb, ub)
			}
		}
	}
}
