// Package ctxflow enforces the engine's cancellation contract:
// library packages must thread the caller's context, because the
// reducers' cooperative cancellation (join.RunTasks polls the request
// context mid-combination; core surfaces it as ErrCanceled) and the
// admission batcher's deadline propagation both die silently the
// moment a layer manufactures its own root context. Three
// rules, applied only inside the configured scope (the serving-path
// packages — main packages and tests may build roots freely):
//
//  1. context.Background() and context.TODO() are forbidden; derive
//     from the incoming context (context.WithoutCancel for work that
//     must outlive the request).
//  2. A function that takes a context but calls context-accepting
//     callees without ever using its own parameter is dropping
//     cancellation on the floor.
//  3. Struct fields must not hold a context.Context: a stored context
//     outlives the call that supplied it, which is how stale deadlines
//     and leaked cancellation trees happen. (The one sanctioned
//     exception, the admission batcher's per-member context handed
//     across goroutines, carries a justified suppression.)
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"tkij/internal/lint/analysis"
)

// DefaultScope lists the packages the contract binds: every layer
// between a query's arrival and its bucket probes.
func DefaultScope() []string {
	return []string{
		"tkij/internal/core",
		"tkij/internal/join",
		"tkij/internal/admission",
		"tkij/internal/standing",
		"tkij/internal/distribute",
		"tkij/internal/experiments",
		"tkij/internal/obs",
	}
}

// NewAnalyzer builds the analyzer over a package scope; tests inject
// fixture paths.
func NewAnalyzer(scope []string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "ctxflow",
		Doc:  "serving-path packages must thread the incoming context, never fabricate roots",
		Run:  func(p *analysis.Pass) error { return run(p, scope) },
	}
}

// Analyzer checks the repo's default scope.
var Analyzer = NewAnalyzer(DefaultScope())

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func run(p *analysis.Pass, scope []string) error {
	if !inScope(p.Pkg.Path(), scope) {
		return nil
	}
	for _, f := range p.Files {
		checkFile(p, f)
	}
	return nil
}

func checkFile(p *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkRootCall(p, n)
		case *ast.StructType:
			checkCtxField(p, n)
		case *ast.FuncDecl:
			checkDroppedCtx(p, n)
		}
		return true
	})
}

// checkRootCall flags context.Background() / context.TODO().
func checkRootCall(p *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := p.Info.Uses[pkg].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return
	}
	switch sel.Sel.Name {
	case "Background", "TODO":
		p.Reportf(call.Pos(), "context.%s() fabricates a root context in a serving-path package; derive from the incoming ctx (use context.WithoutCancel to detach)", sel.Sel.Name)
	}
}

// checkCtxField flags struct fields of type context.Context.
func checkCtxField(p *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		p.Reportf(field.Pos(), "struct field stores a context.Context; contexts are call-scoped — pass them as parameters")
	}
}

// checkDroppedCtx flags a function whose context parameter is never
// used even though the body calls context-accepting callees.
func checkDroppedCtx(p *analysis.Pass, fn *ast.FuncDecl) {
	if fn.Body == nil || fn.Type.Params == nil {
		return
	}
	var ctxObj types.Object
	var ctxIdent *ast.Ident
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := p.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				ctxObj, ctxIdent = obj, name
			}
		}
	}
	if ctxObj == nil {
		return
	}
	used := false
	callsCtxCallee := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if p.Info.Uses[n] == ctxObj {
				used = true
			}
		case *ast.CallExpr:
			if calleeTakesContext(p, n) {
				callsCtxCallee = true
			}
		}
		return true
	})
	if !used && callsCtxCallee {
		p.Reportf(ctxIdent.Pos(), "context parameter %q is never used, but the body calls context-accepting functions; thread it through", ctxIdent.Name)
	}
}

// calleeTakesContext reports whether the called function's first
// parameter is a context.Context.
func calleeTakesContext(p *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContextType(sig.Params().At(0).Type())
}
