package lint

import (
	"go/ast"
)

// RNGDiscipline pins the repository's randomness discipline: every random
// draw on a request or experiment path must come from a deterministic,
// explicitly threaded *rand.Rand built by socialrec/internal/distribution
// (NewRNG, Split, SplitN, or Recommender.RequestRNG). Two things break
// that discipline and are reported:
//
//  1. Calls to math/rand's package-level draw functions (rand.Float64,
//     rand.Intn, rand.Shuffle, ...). The global source is seeded
//     per-process, shared across goroutines, and invisible to the
//     bit-identity contracts of the cached and streaming paths: one
//     stray global draw makes "same inputs, same bytes" unfalsifiable.
//  2. Ad-hoc generator construction — rand.New or rand.NewSource —
//     outside the approved construction sites. Approved sites are the
//     socialrec/internal/distribution package (the only place allowed to
//     know how streams are seeded and split) and socialrec/internal/
//     mechanism (whose samplers are distribution-audited by the
//     chi-squared harness), plus _test.go files everywhere.
//
// rand.NewZipf is allowed anywhere: it is a distribution over an injected
// *rand.Rand, so determinism is inherited from however the caller built
// that argument — which this analyzer checks separately.
var RNGDiscipline = &Analyzer{
	Name: "rngdiscipline",
	Doc: "flag math/rand global draws and ad-hoc rand.New outside approved sites\n\n" +
		"Request and experiment paths must thread split RNGs from " +
		"socialrec/internal/distribution so every byte of output is a pure " +
		"function of (seed, request); the process-global math/rand source " +
		"breaks that, and scattered rand.New sites make seed derivation " +
		"unauditable.",
	Run: runRNGDiscipline,
}

// rngConstructionAllowed lists package paths that may construct raw
// generators. Everything else goes through distribution's constructors.
var rngConstructionAllowed = []string{
	modulePath + "/internal/distribution",
	modulePath + "/internal/mechanism",
}

func runRNGDiscipline(pass *Pass) error {
	path := pass.Pkg.Path()
	// The distribution package itself defines the approved constructors;
	// mechanism is allowlisted for construction but still must not use the
	// global source, so it is only exempt from rule 2.
	constructionOK := false
	for _, p := range rngConstructionAllowed {
		if hasPathPrefix(path, p) {
			constructionOK = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if !isPkgFunc(fn, "math/rand") && !isPkgFunc(fn, "math/rand/v2") {
				return true
			}
			if isTestFile(pass.Fset, call.Pos()) {
				return true
			}
			switch fn.Name() {
			case "NewZipf":
				// Distribution over an injected source: fine anywhere.
			case "New", "NewSource", "NewPCG", "NewChaCha8":
				if !constructionOK {
					pass.Reportf(call.Pos(),
						"ad-hoc %s.%s: construct RNGs via %s/internal/distribution (NewRNG/Split/SplitN) so seed derivation stays auditable",
						fn.Pkg().Name(), fn.Name(), modulePath)
				}
			default:
				// Every other package-level function of math/rand draws from
				// (or reseeds) the process-global source.
				pass.Reportf(call.Pos(),
					"global %s.%s draw: thread a *rand.Rand (distribution.SplitN or Recommender.RequestRNG) instead of the process-global source",
					fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}
