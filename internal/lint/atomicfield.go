package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField pins the counter discipline of the budget/cache/pool code: a
// struct field that is accessed through sync/atomic anywhere must be
// accessed atomically everywhere. Mixing atomic.AddInt64(&s.n, 1)
// with a plain s.n read is a data race whose torn reads surface as
// impossible budget arithmetic — exactly the class of bug the striped
// budget manager (PR 5) exists to exclude — and the race detector only
// catches it when a test happens to interleave the two.
//
// The analyzer works per package, in two passes over the same type-checked
// AST: pass one records every field object that appears as &s.f inside a
// sync/atomic call; pass two reports every other use of those fields that
// is not itself inside a sync/atomic call. The preferred fix is the typed
// atomics (atomic.Int64, atomic.Uint64, ...) this repository already uses
// everywhere — they make non-atomic access unrepresentable, and this
// analyzer is what keeps a refactor from quietly reintroducing the
// function-style mixture.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "flag non-atomic access to struct fields that are accessed atomically elsewhere\n\n" +
		"a field touched via sync/atomic anywhere must be atomic everywhere; " +
		"prefer the typed atomic.Int64-style fields used across this repo.",
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) error {
	info := pass.TypesInfo

	// atomicUses maps field objects to the &s.f call sites that accessed
	// them atomically; atomicArgs marks the exact SelectorExpr nodes inside
	// those calls so pass two can exempt them.
	atomicFields := map[*types.Var]token.Pos{}
	atomicArgs := map[*ast.SelectorExpr]bool{}

	fieldOf := func(e ast.Expr) (*types.Var, *ast.SelectorExpr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return nil, nil
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return nil, nil
		}
		return v, sel
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if !isPkgFunc(fn, "sync/atomic") {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if v, sel := fieldOf(un.X); v != nil {
					atomicFields[v] = call.Pos()
					atomicArgs[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if atomicArgs[sel] {
				return true
			}
			v, _ := fieldOf(sel)
			if v == nil {
				return true
			}
			if atPos, ok := atomicFields[v]; ok {
				pass.Reportf(sel.Pos(),
					"non-atomic access to field %s, which is accessed atomically at %s: use sync/atomic everywhere or a typed atomic.%s field",
					v.Name(), pass.Fset.Position(atPos), typedAtomicFor(v.Type()))
			}
			return true
		})
	}
	return nil
}

// typedAtomicFor names the typed atomic matching a plain counter type, for
// the fix hint.
func typedAtomicFor(t types.Type) string {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return "Value"
	}
	switch b.Kind() {
	case types.Int32:
		return "Int32"
	case types.Int64, types.Int:
		return "Int64"
	case types.Uint32:
		return "Uint32"
	case types.Uint64, types.Uint, types.Uintptr:
		return "Uint64"
	case types.Bool:
		return "Bool"
	default:
		return "Value"
	}
}
