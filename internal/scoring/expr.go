package scoring

import (
	"fmt"
	"strings"

	"tkij/internal/interval"
)

// Endpoint indexes one of the four endpoints of an (x, y) interval pair.
type Endpoint int

// The four endpoints in canonical order: x̲, x̄, y̲, ȳ.
const (
	XStart Endpoint = iota
	XEnd
	YStart
	YEnd
	numEndpoints
)

var endpointNames = [numEndpoints]string{"x.start", "x.end", "y.start", "y.end"}

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	if e < 0 || e >= numEndpoints {
		return fmt.Sprintf("Endpoint(%d)", int(e))
	}
	return endpointNames[e]
}

// LinearExpr is a linear combination of the four endpoints of an
// interval pair plus a constant:
//
//	Coef[XStart]·x̲ + Coef[XEnd]·x̄ + Coef[YStart]·y̲ + Coef[YEnd]·ȳ + Const
//
// Every comparator argument difference appearing in the paper's
// predicates is expressible this way: before compares y̲ to x̄
// (difference y̲ - x̄), shiftMeets compares x̄ + avg to y̲, sparks
// compares ȳ - y̲ to 10·(x̄ - x̲), and so on. Keeping the difference in
// closed linear form is what lets the bound solver compute tight ranges
// over granule boxes without a general constraint solver.
type LinearExpr struct {
	Coef  [numEndpoints]float64
	Const float64
}

// Eval evaluates the expression on a concrete interval pair.
func (e LinearExpr) Eval(x, y interval.Interval) float64 {
	return e.Coef[XStart]*float64(x.Start) +
		e.Coef[XEnd]*float64(x.End) +
		e.Coef[YStart]*float64(y.Start) +
		e.Coef[YEnd]*float64(y.End) +
		e.Const
}

// EvalVars evaluates the expression on explicit endpoint values, in the
// canonical order (x̲, x̄, y̲, ȳ). Used by the solver, where endpoints
// are decision variables rather than concrete intervals.
func (e LinearExpr) EvalVars(v [4]float64) float64 {
	return e.Coef[0]*v[0] + e.Coef[1]*v[1] + e.Coef[2]*v[2] + e.Coef[3]*v[3] + e.Const
}

// Range returns the tight [lo, hi] of the expression when each endpoint
// ranges independently over the box lo[i]..hi[i]. (Granule boxes are
// axis-aligned, so a linear function attains its extrema at the corners;
// per-coefficient sign analysis avoids enumerating them.)
func (e LinearExpr) Range(lo, hi [4]float64) (rlo, rhi float64) {
	rlo, rhi = e.Const, e.Const
	for i := 0; i < int(numEndpoints); i++ {
		c := e.Coef[i]
		switch {
		case c > 0:
			rlo += c * lo[i]
			rhi += c * hi[i]
		case c < 0:
			rlo += c * hi[i]
			rhi += c * lo[i]
		}
	}
	return rlo, rhi
}

// Sub returns the expression e - o.
func (e LinearExpr) Sub(o LinearExpr) LinearExpr {
	var r LinearExpr
	for i := range r.Coef {
		r.Coef[i] = e.Coef[i] - o.Coef[i]
	}
	r.Const = e.Const - o.Const
	return r
}

// Var returns the expression consisting of a single endpoint.
func Var(ep Endpoint) LinearExpr {
	var e LinearExpr
	e.Coef[ep] = 1
	return e
}

// VarPlus returns endpoint + c, e.g. x̄ + avg for shiftMeets.
func VarPlus(ep Endpoint, c float64) LinearExpr {
	e := Var(ep)
	e.Const = c
	return e
}

// Length returns the length expression of one side: ȳ - y̲ when y is
// true, else x̄ - x̲.
func Length(ofY bool) LinearExpr {
	var e LinearExpr
	if ofY {
		e.Coef[YEnd] = 1
		e.Coef[YStart] = -1
	} else {
		e.Coef[XEnd] = 1
		e.Coef[XStart] = -1
	}
	return e
}

// String renders the expression for diagnostics.
func (e LinearExpr) String() string {
	var parts []string
	for i, c := range e.Coef {
		if c == 0 {
			continue
		}
		if c == 1 {
			parts = append(parts, endpointNames[i])
		} else {
			parts = append(parts, fmt.Sprintf("%g*%s", c, endpointNames[i]))
		}
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%g", e.Const))
	}
	return strings.Join(parts, " + ")
}
