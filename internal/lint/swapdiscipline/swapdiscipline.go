// Package swapdiscipline enforces the clone-repair-swap discipline of
// the serving layer: the live SketchSet/state is published through a
// sync/atomic.Pointer, readers Load() a snapshot and treat it as
// immutable, and writers must Clone() the snapshot, repair the clone,
// and Store() the repaired copy. Writing through a Load()ed snapshot is
// a data race against every in-flight query — one the race detector
// only catches if a test happens to overlap a read with the write.
//
// The analyzer runs a per-function taint walk: values obtained from
// atomic.Pointer.Load() are tainted, taint propagates through field
// selection, indexing and dereference, and Clone() (or any other call)
// launders it. Flagged: assignments whose left-hand side is reachable
// from a tainted value, and calls to known mutating methods (UpdateEdges,
// Materialize, Set, SetBunch, Canonicalize) with a tainted receiver.
package swapdiscipline

import (
	"go/ast"
	"go/types"

	"distsketch/internal/lint/analysis"
)

// mutators are methods that mutate their receiver; calling one on a
// published snapshot is as racy as a direct field write.
var mutators = map[string]bool{
	"UpdateEdges":  true,
	"Materialize":  true,
	"Set":          true,
	"SetBunch":     true,
	"Canonicalize": true,
}

// Analyzer flags writes through snapshots loaded from an atomic.Pointer.
var Analyzer = &analysis.Analyzer{
	Name: "swapdiscipline",
	Doc:  "flag writes to state reachable from an atomic.Pointer Load() outside the clone-repair-swap sequence",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.EachFuncBody(func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		tainted := make(map[*types.Var]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, v, tainted)
			case *ast.IncDecStmt:
				if inner, ok := innerExpr(v.X); ok && taintedExpr(pass, inner, tainted) {
					pass.Reportf(v.Pos(), "write through a snapshot loaded from an atomic.Pointer; Clone the snapshot, repair the clone, then Store it (clone-repair-swap)")
				}
			case *ast.CallExpr:
				checkMutatorCall(pass, v, tainted)
			}
			return true
		})
	})
	return nil
}

func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, tainted map[*types.Var]bool) {
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[0]
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			// Plain variable (re)binding: propagate or clear taint. Binding
			// a new name to a snapshot is not itself a write.
			if lv := pass.LocalVar(id); lv != nil {
				if taintedExpr(pass, rhs, tainted) {
					tainted[lv] = true
				} else {
					delete(tainted, lv)
				}
			}
			continue
		}
		// Compound lvalue: x.f = v, x[i] = v, *p = v. Writing through a
		// tainted chain mutates the published snapshot.
		if inner, ok := innerExpr(lhs); ok && taintedExpr(pass, inner, tainted) {
			pass.Reportf(lhs.Pos(), "write through a snapshot loaded from an atomic.Pointer; Clone the snapshot, repair the clone, then Store it (clone-repair-swap)")
		}
	}
}

func checkMutatorCall(pass *analysis.Pass, call *ast.CallExpr, tainted map[*types.Var]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !mutators[sel.Sel.Name] {
		return
	}
	if _, isMethod := pass.TypesInfo.Selections[sel]; !isMethod {
		return
	}
	if taintedExpr(pass, sel.X, tainted) {
		pass.Reportf(call.Pos(), "mutating method %s called on a snapshot loaded from an atomic.Pointer; Clone the snapshot first, then Store the repaired copy", sel.Sel.Name)
	}
}

// innerExpr strips one lvalue layer: x.f -> x, x[i] -> x, *p -> p.
func innerExpr(e ast.Expr) (ast.Expr, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return v.X, true
	case *ast.IndexExpr:
		return v.X, true
	case *ast.StarExpr:
		return v.X, true
	}
	return nil, false
}

// taintedExpr reports whether e denotes (part of) a published snapshot:
// a direct atomic.Pointer Load() result, a tainted local, or a
// selection/index/deref chain rooted at one. Any other call — Clone()
// above all — launders the taint.
func taintedExpr(pass *analysis.Pass, e ast.Expr, tainted map[*types.Var]bool) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if lv := pass.LocalVar(v); lv != nil {
			return tainted[lv]
		}
	case *ast.SelectorExpr:
		return taintedExpr(pass, v.X, tainted)
	case *ast.IndexExpr:
		return taintedExpr(pass, v.X, tainted)
	case *ast.StarExpr:
		return taintedExpr(pass, v.X, tainted)
	case *ast.CallExpr:
		return isAtomicLoad(pass, v)
	}
	return false
}

// isAtomicLoad reports whether call is (*sync/atomic.Pointer[T]).Load().
func isAtomicLoad(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	recv := pass.TypeOf(sel.X)
	return recv != nil && analysis.IsNamed(recv, "sync/atomic", "Pointer")
}
