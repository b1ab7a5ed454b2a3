// Package std reimplements two vet-family passes the sketchlint suite
// wants alongside its custom analyzers: nilness and unusedwrite. The
// x/tools originals are unavailable in an offline build and the bundled
// `go vet` ships neither, so these are from-scratch ports of the useful
// core of each check against the same minimal analysis framework the
// custom analyzers use. Copylocks, the third pass the suite wants, is
// not ported: `go vet` runs it, and CI runs `go vet ./...`.
//
// Each is deliberately a subset of its namesake — syntactic, per
// function, no SSA — tuned to catch the mistakes that matter in this
// repo: dereferencing a pointer on the branch that just proved it nil,
// and writing to a by-value range variable or value receiver where the
// write vanishes at the end of the iteration.
package std

import (
	"go/ast"
	"go/types"

	"distsketch/internal/lint/analysis"
)

// ---------------------------------------------------------------------------
// nilness

// Nilness flags dereferences on the branch that just established the
// value is nil.
var Nilness = &analysis.Analyzer{
	Name: "nilness",
	Doc:  "flag dereferences of values proven nil by the enclosing branch",
	Run:  runNilness,
}

func runNilness(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifStmt, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			v, nilOnEq := nilComparison(pass, ifStmt.Cond)
			if v == nil {
				return true
			}
			var branch ast.Stmt
			if nilOnEq {
				branch = ifStmt.Body
			} else {
				branch = ifStmt.Else
			}
			if branch != nil {
				checkNilDerefs(pass, v, branch)
			}
			return true
		})
	}
	return nil
}

// nilComparison decodes `x == nil` / `nil == x` (returns x, true) and
// `x != nil` / `nil != x` (returns x, false) for a local x of a nilable
// type; (nil, false) otherwise.
func nilComparison(pass *analysis.Pass, cond ast.Expr) (*types.Var, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil, false
	}
	op := bin.Op.String()
	if op != "==" && op != "!=" {
		return nil, false
	}
	other := bin.Y
	if isNilIdent(pass, bin.Y) {
		other = bin.X
	} else if !isNilIdent(pass, bin.X) {
		return nil, false
	}
	v := pass.LocalVar(other)
	if v == nil {
		return nil, false
	}
	switch v.Type().Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Signature, *types.Chan:
		return v, op == "=="
	}
	return nil, false
}

func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// checkNilDerefs walks the nil branch in source order, flagging
// dereferences of v until v is reassigned.
func checkNilDerefs(pass *analysis.Pass, v *types.Var, branch ast.Stmt) {
	reassigned := false
	ast.Inspect(branch, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if pass.LocalVar(lhs) == v {
					reassigned = true
				}
			}
		case *ast.SelectorExpr:
			if pass.LocalVar(node.X) != v {
				return true
			}
			switch v.Type().Underlying().(type) {
			case *types.Pointer:
				if sel, ok := pass.TypesInfo.Selections[node]; !ok || sel.Kind() == types.FieldVal {
					pass.Reportf(node.Pos(), "field access on %s, which is nil on this branch", v.Name())
				}
			case *types.Interface:
				pass.Reportf(node.Pos(), "method call on %s, which is nil on this branch", v.Name())
			}
		case *ast.StarExpr:
			if pass.LocalVar(node.X) == v {
				pass.Reportf(node.Pos(), "dereference of %s, which is nil on this branch", v.Name())
			}
		case *ast.IndexExpr:
			if pass.LocalVar(node.X) != v {
				return true
			}
			switch v.Type().Underlying().(type) {
			case *types.Slice, *types.Pointer:
				pass.Reportf(node.Pos(), "index of %s, which is nil on this branch", v.Name())
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && pass.LocalVar(id) == v {
				pass.Reportf(node.Pos(), "call of %s, which is nil on this branch", v.Name())
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// unusedwrite

// Unusedwrite flags field writes through a by-value copy (range variable
// or value receiver) that no later code in the same scope reads — the
// write disappears when the copy does.
var Unusedwrite = &analysis.Analyzer{
	Name: "unusedwrite",
	Doc:  "flag field writes to by-value copies (range variables, value receivers) that are never read afterwards",
	Run:  runUnusedwrite,
}

func runUnusedwrite(pass *analysis.Pass) error {
	pass.EachFuncBody(func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		if recv := valueStructReceiver(pass, decl); recv != nil {
			checkLostWrites(pass, recv, body, "value receiver")
		}
		ast.Inspect(body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || rng.Value == nil {
				return true
			}
			v := rangeValueVar(pass, rng.Value)
			if v == nil {
				return true
			}
			if _, isStruct := v.Type().Underlying().(*types.Struct); !isStruct {
				return true
			}
			checkLostWrites(pass, v, rng.Body, "range variable")
			return true
		})
	})
	return nil
}

func valueStructReceiver(pass *analysis.Pass, decl *ast.FuncDecl) *types.Var {
	if decl.Recv == nil || len(decl.Recv.List) != 1 || len(decl.Recv.List[0].Names) != 1 {
		return nil
	}
	v, ok := pass.TypesInfo.Defs[decl.Recv.List[0].Names[0]].(*types.Var)
	if !ok {
		return nil
	}
	if _, isStruct := v.Type().Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return v
}

func rangeValueVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[id].(*types.Var)
	return v
}

// checkLostWrites flags assignments `v.f = x` where no use of v follows
// the assignment within body — the write lands in a copy that is about
// to be discarded.
func checkLostWrites(pass *analysis.Pass, v *types.Var, body ast.Node, what string) {
	// Collect every use position of v first.
	var uses []int
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
			uses = append(uses, int(id.Pos()))
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || pass.LocalVar(sel.X) != v {
				continue
			}
			readAfter := false
			for _, u := range uses {
				if u > int(as.End()) {
					readAfter = true
					break
				}
			}
			if !readAfter {
				pass.Reportf(lhs.Pos(), "write to field %s of %s %s is never read; the copy is discarded", sel.Sel.Name, what, v.Name())
			}
		}
		return true
	})
}
