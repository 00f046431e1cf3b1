package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoiseOrder pins the reservation-before-query rule from the striped
// budget accountant: inside an Accountant request method, the budget must
// be debited — via the charge helper or budget.Manager.Reserve — before
// anything samples noise. Reserving first is what keeps
// concurrent callers from jointly overspending ε: a method that draws
// first and charges after reopens exactly the overspend race the
// reservation design closed, and it does so silently, because the answer
// it returns is statistically indistinguishable from the correct one.
//
// Sampling, for this analyzer, is any call from an Accountant method into
// socialrec/internal/mechanism, and any Recommend*/recommend* method call
// on the Recommender (whose request paths all end in a mechanism draw).
// The check is a source-order approximation of dominance: a sampling call
// is reported unless a reserve call appears earlier in the same method
// body. On this codebase every Accountant request method hands its query
// to charge as a function literal, and charge runs it only after the
// reservation (refunding on error); the literal sits inside the charge
// call, so source order and dominance coincide. A refactor that breaks
// the approximation (sampling in a helper called before charge, or in a
// literal declared before it) is exactly the kind of change that should
// trip a loud gate and get a human look.
var NoiseOrder = &Analyzer{
	Name: "noiseorder",
	Doc: "flag Accountant methods that sample noise before reserving budget\n\n" +
		"budget reservation must dominate mechanism sampling in every " +
		"Accountant request method; drawing first reopens the concurrent " +
		"overspend race the reservation design closed.",
	Run: runNoiseOrder,
}

func runNoiseOrder(pass *Pass) error {
	if pass.Pkg.Path() != modulePath {
		return nil
	}
	info := pass.TypesInfo

	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			// Only methods on Accountant hold the reservation obligation.
			fn, _ := info.Defs[fd.Name].(*types.Func)
			named := recvNamed(fn)
			if named == nil || named.Obj().Name() != "Accountant" {
				continue
			}

			// First reserve position in the body, if any.
			reservePos := token.NoPos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(info, call)
				if (isPkgFunc(callee, modulePath) && callee.Name() == "charge") ||
					isMethodOf(callee, modulePath+"/internal/budget", "Manager", "Reserve") {
					if !reservePos.IsValid() || call.Pos() < reservePos {
						reservePos = call.Pos()
					}
				}
				return true
			})

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(info, call)
				if !isSamplingCall(callee) {
					return true
				}
				if !reservePos.IsValid() {
					pass.Reportf(call.Pos(),
						"Accountant.%s samples noise via %s without reserving budget: call charge/Reserve before any mechanism draw",
						fd.Name.Name, callee.Name())
				} else if call.Pos() < reservePos {
					pass.Reportf(call.Pos(),
						"Accountant.%s samples noise via %s before the budget reservation at %s: reservation must come first",
						fd.Name.Name, callee.Name(), pass.Fset.Position(reservePos))
				}
				return true
			})
		}
	}
	return nil
}

// isSamplingCall reports calls that (transitively) draw mechanism noise:
// anything in internal/mechanism, and the Recommender's request methods.
func isSamplingCall(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == modulePath+"/internal/mechanism" {
		return true
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == modulePath &&
		named.Obj().Name() == "Recommender" &&
		strings.HasPrefix(strings.ToLower(fn.Name()), "recommend")
}
