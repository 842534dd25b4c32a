package scoring

import (
	"fmt"
	"strings"

	"tkij/internal/interval"
)

// CompKind distinguishes the two primitive comparators of Figure 3.
type CompKind int

// Comparator kinds.
const (
	// CompEquals scores the degree of equality of two endpoint
	// expressions.
	CompEquals CompKind = iota
	// CompGreater scores the degree to which the left expression exceeds
	// the right one.
	CompGreater
)

// String implements fmt.Stringer.
func (k CompKind) String() string {
	switch k {
	case CompEquals:
		return "equals"
	case CompGreater:
		return "greater"
	}
	return fmt.Sprintf("CompKind(%d)", int(k))
}

// Term is one comparator application inside a scored predicate: the
// graded comparison Kind(Left, Right) with tolerance parameters P.
// Its score is a function of the single difference Diff = Left - Right,
// which Term caches in closed linear form.
type Term struct {
	Kind        CompKind
	Left, Right LinearExpr
	P           Params
	// Diff = Left - Right, precomputed by NewTerm.
	Diff LinearExpr
}

// NewTerm builds a term and precomputes its difference expression.
func NewTerm(kind CompKind, left, right LinearExpr, p Params) Term {
	return Term{Kind: kind, Left: left, Right: right, P: p, Diff: left.Sub(right)}
}

// Score evaluates the term on a concrete interval pair, in [0, 1].
func (t Term) Score(x, y interval.Interval) float64 {
	d := t.Diff.Eval(x, y)
	if t.Kind == CompEquals {
		return EqualsScore(d, t.P)
	}
	return GreaterScore(d, t.P)
}

// ScoreOfDiff evaluates the term given a precomputed difference value.
// It and ScoreRange take a pointer: they are too large to inline, and
// the bound solver calls them per term per branch-and-bound node, where
// a value receiver copies the 144-byte Term each time.
func (t *Term) ScoreOfDiff(d float64) float64 {
	if t.Kind == CompEquals {
		return EqualsScore(d, t.P)
	}
	return GreaterScore(d, t.P)
}

// ScoreRange returns the tight [min, max] of the term score when the
// difference ranges over [dlo, dhi].
func (t *Term) ScoreRange(dlo, dhi float64) (min, max float64) {
	if t.Kind == CompEquals {
		return EqualsScoreRange(dlo, dhi, t.P)
	}
	return GreaterScoreRange(dlo, dhi, t.P)
}

// Bool evaluates the term's Boolean interpretation: equality within λ
// for CompEquals, strict excess over λ for CompGreater. At λ = ρ = 0
// this is the exact Allen-style comparison.
func (t Term) Bool(x, y interval.Interval) bool {
	d := t.Diff.Eval(x, y)
	if t.Kind == CompEquals {
		if d < 0 {
			d = -d
		}
		return d <= t.P.Lambda
	}
	return d > t.P.Lambda
}

// String renders the term.
func (t Term) String() string {
	return fmt.Sprintf("%s(%s, %s; λ=%g ρ=%g)", t.Kind, t.Left, t.Right, t.P.Lambda, t.P.Rho)
}

// Predicate is a scored temporal predicate s-p(x, y): the minimum of its
// terms' scores (Figure 2 column 4 — every Allen predicate and every
// custom predicate of the paper is a min-conjunction of equals/greater
// comparators). A predicate with a single term is just that term's
// score.
type Predicate struct {
	// Name identifies the predicate ("s-meets", "s-justBefore", ...).
	Name string
	// Terms are combined by min; the slice is never empty for a valid
	// predicate.
	Terms []Term
}

// Score returns s-p(x, y) in [0, 1].
func (p *Predicate) Score(x, y interval.Interval) float64 {
	s := 1.0
	for i := range p.Terms {
		// By pointer: ranging by value copies the 144-byte Term per
		// term on the join's per-candidate path.
		t := &p.Terms[i]
		d := t.Diff.Eval(x, y)
		var v float64
		if t.Kind == CompEquals {
			v = EqualsScore(d, t.P)
		} else {
			v = GreaterScore(d, t.P)
		}
		if v < s {
			s = v
			if s == 0 {
				break
			}
		}
	}
	return s
}

// Bool returns the Boolean interpretation p(x, y): the conjunction of
// every term's Boolean test (Figure 2 column 2).
func (p *Predicate) Bool(x, y interval.Interval) bool {
	for _, t := range p.Terms {
		if !t.Bool(x, y) {
			return false
		}
	}
	return true
}

// Validate reports structural problems (no terms, malformed params).
func (p *Predicate) Validate() error {
	if p == nil || len(p.Terms) == 0 {
		return fmt.Errorf("scoring: predicate %q has no terms", p.Name)
	}
	for i, t := range p.Terms {
		if t.P.Lambda < 0 || t.P.Rho < 0 {
			return fmt.Errorf("scoring: predicate %q term %d: negative λ or ρ", p.Name, i)
		}
	}
	return nil
}

// String renders the predicate.
func (p *Predicate) String() string {
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s = min{%s}", p.Name, strings.Join(parts, ", "))
}
