package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpinBound rejects unbounded busy-wait loops: every for loop whose body
// calls runtime.Gosched must have a compile-time-visible iteration bound —
// the commitYields pattern (for i := 0; i < constBound; i++). The
// group-commit journal leader manufactures scheduling points by yielding,
// and a connection's writer goroutine yields once per wake so the
// processes readied with it queue their frames first; an unbounded spin in
// their place livelocks a GOMAXPROCS=1 run the moment the condition it
// polls can only be advanced by the goroutine that is spinning. Range loops
// count as bounded (the ranged collection is finite, and a range over a
// channel blocks on every receive — the writer's shape); what is banned is
// `for { Gosched() }` and condition-only spins like
// `for x.Load() > 0 { Gosched() }`.
var SpinBound = &Analyzer{
	Name: "spinbound",
	Doc:  "every runtime.Gosched busy-wait loop carries a compile-time-visible iteration bound",
	Run:  runSpinBound,
}

func runSpinBound(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		var loops []ast.Node // enclosing for/range stack
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, nn)
				// Walk children, then pop: ast.Inspect gives no post-order
				// hook, so recurse manually over the loop body parts.
				for _, child := range loopChildren(nn) {
					if child != nil {
						ast.Inspect(child, visit)
					}
				}
				loops = loops[:len(loops)-1]
				return false
			case *ast.FuncLit:
				// A literal's body has its own loop context.
				saved := loops
				loops = nil
				ast.Inspect(nn.Body, visit)
				loops = saved
				return false
			case *ast.CallExpr:
				if !isGoschedCall(pass, nn) {
					return true
				}
				if len(loops) == 0 {
					return true // a lone yield is not a spin
				}
				innermost := loops[len(loops)-1]
				if !loopBounded(pass, innermost) {
					pass.Reportf(nn.Pos(), "runtime.Gosched inside an unbounded loop; spin loops must carry a compile-time constant bound (the flushYields pattern: for i := 0; i < constBound; i++)")
				}
				return true
			}
			return true
		}
		ast.Inspect(f, visit)
	}
}

// loopChildren returns the sub-nodes of a for/range statement to search for
// Gosched calls under this loop's context.
func loopChildren(n ast.Node) []ast.Node {
	switch l := n.(type) {
	case *ast.ForStmt:
		out := []ast.Node{}
		if l.Init != nil {
			out = append(out, l.Init)
		}
		if l.Cond != nil {
			out = append(out, l.Cond)
		}
		if l.Post != nil {
			out = append(out, l.Post)
		}
		return append(out, l.Body)
	case *ast.RangeStmt:
		return []ast.Node{l.X, l.Body}
	}
	return nil
}

// isGoschedCall matches a call to runtime.Gosched.
func isGoschedCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Gosched" {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "runtime"
}

// loopBounded reports whether the loop's trip count is visibly bounded at
// compile time: a range loop, or a three-clause for whose condition
// compares the loop variable against a constant (or constant expression).
func loopBounded(pass *Pass, n ast.Node) bool {
	if _, ok := n.(*ast.RangeStmt); ok {
		return true
	}
	l, ok := n.(*ast.ForStmt)
	if !ok {
		return false
	}
	if l.Cond == nil {
		return false // for { ... }
	}
	cmp, ok := unparen(l.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return false
	}
	// One side must be a compile-time constant: the bound.
	return isConstExpr(pass, cmp.X) || isConstExpr(pass, cmp.Y)
}

// isConstExpr reports whether the type checker recorded a constant value
// for e (literals, named constants, constant arithmetic).
func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}
