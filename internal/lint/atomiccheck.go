package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AtomicCheck enforces atomics discipline module-wide, in two phases over
// the whole package set: phase 1 collects every struct field that is
// accessed through a sync/atomic function (atomic.AddInt64(&s.n, 1) and
// friends); phase 2 reports every plain read or write of those same fields
// anywhere in the module. Mixing the two access modes is the bug class of
// any counter published across goroutines without a lock: a plain load
// next to an atomic add is a data race the happens-before reasoning of the
// rendezvous protocol silently builds on, and the race detector sees it
// only when a test happens to schedule the two accesses together. Fields of
// the typed atomic.Int64-style types are safe by construction (their only
// operations are methods) and need no check; vet's copylocks already flags
// copying them.
var AtomicCheck = &Analyzer{
	Name:      "atomiccheck",
	Doc:       "a struct field accessed through sync/atomic is never read or written plainly anywhere in the module",
	RunModule: runAtomicCheck,
}

// atomicFns are the sync/atomic functions whose first argument is the
// address of the atomically accessed word.
var atomicFns = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func runAtomicCheck(mp *ModulePass) {
	// Phase 1: which struct fields does the module access atomically, and
	// where (the witness position makes the diagnostic actionable).
	atomicFields := make(map[*types.Var]token.Pos)
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if v := atomicArgField(pkg, call); v != nil {
					if _, seen := atomicFields[v]; !seen {
						atomicFields[v] = call.Pos()
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return
	}

	// Phase 2: any plain (non-atomic) read or write of those fields is a
	// mixed-access race.
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			v := &atomicUseVisitor{mp: mp, pkg: pkg, fields: atomicFields}
			ast.Walk(v, f)
		}
	}
}

// atomicArgField returns the struct field whose address is the first
// argument of a sync/atomic call, or nil.
func atomicArgField(pkg *Package, call *ast.CallExpr) *types.Var {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !atomicFns[sel.Sel.Name] {
		return nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	addr, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return nil
	}
	return fieldVarOf(pkg, addr.X)
}

// fieldVarOf resolves e to the struct field it selects, or nil.
func fieldVarOf(pkg *Package, e ast.Expr) *types.Var {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// atomicUseVisitor walks one file and reports plain uses of atomically
// accessed fields, skipping the &f arguments of sync/atomic calls
// themselves.
type atomicUseVisitor struct {
	mp     *ModulePass
	pkg    *Package
	fields map[*types.Var]token.Pos
}

func (v *atomicUseVisitor) Visit(n ast.Node) ast.Visitor {
	call, ok := n.(*ast.CallExpr)
	if ok && atomicArgField(v.pkg, call) != nil {
		// The sanctioned access: skip the address-of argument, but keep
		// checking the remaining arguments (they are plain expressions).
		for _, arg := range call.Args[1:] {
			ast.Walk(v, arg)
		}
		return nil
	}
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return v
	}
	f := fieldVarOf(v.pkg, sel)
	if f == nil {
		return v
	}
	if firstUse, isAtomic := v.fields[f]; isAtomic {
		v.mp.Reportf(sel.Pos(), "plain access to field %s, which is accessed atomically (e.g. at %s); use sync/atomic for every access or a typed atomic field",
			fieldLabel(f), v.shortPos(firstUse))
	}
	return v
}

func (v *atomicUseVisitor) shortPos(p token.Pos) string {
	pos := v.mp.Fset.Position(p)
	base := pos.Filename
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return base + ":" + strconv.Itoa(pos.Line)
}

// fieldLabel names a field as Pkg.field (the owning struct type is not
// recoverable from the Var alone without an index; package + name is
// unambiguous enough for a diagnostic, the position pins it exactly).
func fieldLabel(f *types.Var) string {
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}
