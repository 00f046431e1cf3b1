package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// EpochKey pins the snapshot-epoch keying rule of the serving cache: every
// cache access and every cache key must carry the epoch of the snapshot the
// computation ran against, threaded from the snapshot state — never a
// literal, never arithmetic, never an unrelated variable. Epoch keying is
// what lets a request that raced past a snapshot swap miss cleanly instead
// of reading a vector computed on a different graph (see the "Cache
// invalidation" section in doc.go); a single call site that fabricates an
// epoch turns the cache into a cross-snapshot aliasing bug that no test
// with a single epoch will ever catch.
//
// Mechanically, inside the root socialrec package the analyzer checks:
//
//   - calls to vectorCache.get / put: the epoch argument,
//   - composite literals of cacheKey: the epoch field value,
//   - assignments to a field named epoch: the right-hand side,
//
// and requires each checked expression to be epoch-derived: a selector
// x.epoch (the snapState/cacheEntry plumbing) or an identifier whose
// declared name contains "epoch" / "Epoch" (the fromEpoch/toEpoch
// parameters that thread epochs through helper functions). Everything
// else is reported.
var EpochKey = &Analyzer{
	Name: "epochkey",
	Doc: "flag cache accesses whose key is not derived from the snapshot epoch\n\n" +
		"vector-cache entries are keyed (epoch, target); " +
		"fabricating an epoch at a call site aliases results across snapshots.",
	Run: runEpochKey,
}

func runEpochKey(pass *Pass) error {
	if pass.Pkg.Path() != modulePath {
		return nil
	}
	info := pass.TypesInfo

	epochDerived := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return strings.Contains(strings.ToLower(e.Sel.Name), "epoch")
		case *ast.Ident:
			return strings.Contains(strings.ToLower(e.Name), "epoch")
		}
		return false
	}

	// isCacheMethod matches vectorCache methods taking the epoch as their
	// first argument.
	isCacheAccess := func(call *ast.CallExpr) bool {
		fn := calleeFunc(info, call)
		if fn == nil {
			return false
		}
		switch fn.Name() {
		case "get", "put":
		default:
			return false
		}
		return isMethodOf(fn, modulePath, "vectorCache", fn.Name())
	}

	isKeyLit := func(lit *ast.CompositeLit) bool {
		tv, ok := info.Types[lit]
		if !ok {
			return false
		}
		named, ok := deref(tv.Type).(*types.Named)
		if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != modulePath {
			return false
		}
		return named.Obj().Name() == "cacheKey"
	}

	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			// Tests construct synthetic epochs on purpose (cross-epoch
			// eviction tests, etc.).
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isCacheAccess(n) && len(n.Args) > 0 && !epochDerived(n.Args[0]) {
					pass.Reportf(n.Args[0].Pos(),
						"cache access keyed by %s: the key must be the current snapshot epoch (st.epoch), not a fabricated value",
						exprString(n.Args[0]))
				}
			case *ast.CompositeLit:
				if !isKeyLit(n) {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "epoch" && !epochDerived(kv.Value) {
						pass.Reportf(kv.Value.Pos(),
							"key literal fabricates epoch %s: thread the snapshot epoch (st.epoch) instead",
							exprString(kv.Value))
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "epoch" || i >= len(n.Rhs) {
						continue
					}
					if s, ok := info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
						continue
					}
					if !epochDerived(n.Rhs[i]) {
						pass.Reportf(n.Rhs[i].Pos(),
							"epoch field assigned non-epoch value %s: epochs only move by snapshot-state plumbing",
							exprString(n.Rhs[i]))
					}
				}
			}
			return true
		})
	}
	return nil
}

// exprString renders a short source form of simple expressions for
// messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.BinaryExpr:
		return exprString(e.X) + " " + e.Op.String() + " " + exprString(e.Y)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "<expr>"
	}
}
