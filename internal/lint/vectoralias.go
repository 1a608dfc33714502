package lint

import (
	"go/ast"
	"go/types"
)

// VectorAlias enforces the ownership discipline around vector.V values that
// Theorem 4 silently relies on: a vector received as a function parameter is
// on loan from its owner (the peer's clock, a stamp slice, ...), so the
// callee must neither mutate it (element writes, ++, Max, copy into it)
// nor retain an alias past the call. Storing
// it into a field, slice, map, or global without Clone() lets a later Max()
// or increment rewrite an already-issued timestamp; mutating it corrupts the
// caller's clock. Symmetrically, an accessor must not return its receiver's
// internal vector without Clone(), or every caller receives a live alias of
// the clock state.
var VectorAlias = &Analyzer{
	Name: "vectoralias",
	Doc:  "vector.V parameters must not be stored or mutated without Clone(); accessors must not return internal vectors",
	Run:  runVectorAlias,
}

func runVectorAlias(pass *Pass) {
	if pass.Pkg.Path == vectorPkgPath {
		// The vector package itself implements the mutating primitives.
		return
	}
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(decl *ast.FuncDecl, ft *ast.FuncType, body *ast.BlockStmt) {
			checkVectorAliasFunc(pass, decl, ft, body)
		})
	}
}

func checkVectorAliasFunc(pass *Pass, decl *ast.FuncDecl, ft *ast.FuncType, body *ast.BlockStmt) {
	// borrowed is the set of variables holding a loaned vector: the vector.V
	// parameters plus local variables directly assigned from one.
	borrowed := make(map[*types.Var]bool)
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.ObjectOf(name).(*types.Var); ok && isVectorV(v.Type()) {
					borrowed[v] = true
				}
			}
		}
	}
	var recv *types.Var
	if decl != nil && decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		recv, _ = pass.ObjectOf(decl.Recv.List[0].Names[0]).(*types.Var)
	}

	borrowedExpr := func(e ast.Expr) (*types.Var, bool) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		v, ok := pass.ObjectOf(id).(*types.Var)
		if !ok || !borrowed[v] {
			return nil, false
		}
		return v, true
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if len(st.Lhs) != len(st.Rhs) {
					break
				}
				v, ok := borrowedExpr(rhs)
				if !ok {
					continue
				}
				switch lhs := unparen(st.Lhs[i]).(type) {
				case *ast.Ident:
					obj, isVar := pass.ObjectOf(lhs).(*types.Var)
					if !isVar {
						continue
					}
					if obj.Parent() == pass.Pkg.Types.Scope() {
						pass.Reportf(st.Pos(), "vector parameter %s stored in package variable %s without Clone()", v.Name(), obj.Name())
						continue
					}
					// A plain local alias propagates the borrow.
					borrowed[obj] = true
				case *ast.SelectorExpr:
					pass.Reportf(st.Pos(), "vector parameter %s stored in field %s without Clone()", v.Name(), lhs.Sel.Name)
				case *ast.IndexExpr:
					pass.Reportf(st.Pos(), "vector parameter %s stored in a slice or map element without Clone()", v.Name())
				}
			}
			// Writing through an element of a borrowed vector mutates the
			// caller's value.
			for _, lhs := range st.Lhs {
				if ix, ok := unparen(lhs).(*ast.IndexExpr); ok {
					if v, ok := borrowedExpr(ix.X); ok {
						pass.Reportf(lhs.Pos(), "vector parameter %s mutated by element assignment; Clone() it first", v.Name())
					}
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := unparen(st.X).(*ast.IndexExpr); ok {
				if v, ok := borrowedExpr(ix.X); ok {
					pass.Reportf(st.Pos(), "vector parameter %s mutated by %s on an element; Clone() it first", v.Name(), st.Tok)
				}
			}
		case *ast.CallExpr:
			switch fun := unparen(st.Fun).(type) {
			case *ast.SelectorExpr:
				// v.Max(w) mutates its receiver v.
				if fun.Sel.Name == "Max" && isVectorV(pass.TypeOf(fun.X)) {
					if v, ok := borrowedExpr(fun.X); ok {
						pass.Reportf(st.Pos(), "vector parameter %s mutated by Max(); Clone() it first", v.Name())
					}
				}
			case *ast.Ident:
				if _, isBuiltin := pass.ObjectOf(fun).(*types.Builtin); !isBuiltin {
					break
				}
				// append(s, p) retains the alias when s outlives the call.
				if fun.Name == "append" && len(st.Args) >= 2 {
					for _, arg := range st.Args[1:] {
						if v, ok := borrowedExpr(arg); ok {
							pass.Reportf(arg.Pos(), "vector parameter %s appended to a slice without Clone()", v.Name())
						}
					}
				}
				// copy(p, src) — or into a reslice of p — overwrites the
				// caller's vector.
				if fun.Name == "copy" && len(st.Args) == 2 {
					dst := unparen(st.Args[0])
					if sl, ok := dst.(*ast.SliceExpr); ok {
						dst = sl.X
					}
					if v, ok := borrowedExpr(dst); ok {
						pass.Reportf(st.Pos(), "vector parameter %s mutated by copy(); Clone() it first", v.Name())
					}
				}
			}
		case *ast.ReturnStmt:
			// Accessor rule: a method returning a vector field of its
			// receiver hands out a live alias of the clock state.
			if recv == nil {
				return true
			}
			for _, res := range st.Results {
				sel, ok := unparen(res).(*ast.SelectorExpr)
				if !ok || !isVectorV(pass.TypeOf(sel)) {
					continue
				}
				base, ok := unparen(sel.X).(*ast.Ident)
				if !ok {
					continue
				}
				if obj, _ := pass.ObjectOf(base).(*types.Var); obj == recv {
					pass.Reportf(res.Pos(), "accessor returns internal vector %s.%s without Clone()", base.Name, sel.Sel.Name)
				}
			}
		}
		return true
	})
}
