package scoring

import (
	"fmt"
	"strings"
)

// Signature serializes the predicate's scoring semantics: per term the
// comparator kind, the closed-form difference expression, and the
// (λ, ρ) tolerances. Two predicates with equal signatures score every
// interval pair identically, regardless of the Name they were built
// under. It is the sharing identity used by the plan cache's
// query-shape canonicalization: any value derived from (predicate,
// interval boxes) alone may be reused across queries whose predicates
// share a signature.
func (p *Predicate) Signature() string {
	var b strings.Builder
	for ti, t := range p.Terms {
		if ti > 0 {
			b.WriteByte('~')
		}
		fmt.Fprintf(&b, "%d", int(t.Kind))
		for _, c := range t.Diff.Coef {
			fmt.Fprintf(&b, ",%g", c)
		}
		fmt.Fprintf(&b, ",%g,%g,%g", t.Diff.Const, t.P.Lambda, t.P.Rho)
	}
	return b.String()
}
