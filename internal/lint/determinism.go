package lint

import (
	"go/ast"
	"go/types"
)

// determinismExemptPackages may read wall clocks and iterate maps
// freely: internal/overhead exists to measure wall-clock costs, and the
// cmd/examples layer renders results rather than producing replayable
// traces.
var determinismExemptPackages = []string{
	"pfair/internal/overhead",
	"pfair/cmd",
	"pfair/examples",
}

// seededRandConstructors are the package-level math/rand functions that
// construct isolated generators rather than touching the global source.
// Everything else at package level (Intn, Perm, Shuffle, Seed, ...)
// draws from or mutates process-global state and breaks replay.
var seededRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Determinism reports nondeterminism sources in the packages whose
// output must replay byte-identically: the schedulers, simulators, the
// verifier, the parallel harness, and the experiment pipeline (PR 1's
// guarantee that any -workers count produces identical bytes). Three
// things are flagged:
//
//   - ranging over a map: Go randomizes iteration order, so any map
//     iteration whose order can reach a trace, report, or scheduling
//     decision is a replay bug. Iterations that are genuinely
//     order-insensitive (commutative folds, collect-then-sort) carry a
//     //pfair:orderinvariant annotation saying why.
//   - package-level math/rand functions: the global source is shared
//     process state; randomness must flow from seeded *rand.Rand values
//     threaded from replay keys (rand.New(taskgen.NewSource(seed)), or
//     a taskgen.Generator).
//   - time.Now/time.Since: wall clocks differ across runs; measurement
//     paths that are gated off during deterministic simulation carry a
//     //pfair:allowtime annotation.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag map iteration, global math/rand, and wall-clock reads in packages " +
		"whose output must replay byte-identically (annotate order-insensitive map " +
		"folds with //pfair:orderinvariant <reason>, gated measurement paths with " +
		"//pfair:allowtime <reason>)",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	if hasPrefixAny(pass.Path, determinismExemptPackages...) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pass.Info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				found, hasReason := pass.annotated(file, n.Pos(), "orderinvariant")
				switch {
				case !found:
					pass.Reportf(n.Pos(), "map iteration order can leak into output; iterate a sorted key slice, or justify with //pfair:orderinvariant <reason>")
				case !hasReason:
					pass.Reportf(n.Pos(), "//pfair:orderinvariant needs a reason")
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				sig, _ := fn.Type().(*types.Signature)
				pkgPath := fn.Pkg().Path()
				switch {
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") &&
					sig != nil && sig.Recv() == nil && !seededRandConstructors[fn.Name()]:
					pass.Reportf(n.Pos(), "global math/rand.%s breaks replay; thread a seeded *rand.Rand from the replay key instead", fn.Name())
				case pkgPath == "time" && (fn.Name() == "Now" || fn.Name() == "Since"):
					found, hasReason := pass.annotated(file, n.Pos(), "allowtime")
					switch {
					case !found:
						pass.Reportf(n.Pos(), "wall-clock time.%s in a deterministic package; gate measurement behind a flag and justify with //pfair:allowtime <reason>", fn.Name())
					case !hasReason:
						pass.Reportf(n.Pos(), "//pfair:allowtime needs a reason")
					}
				}
			}
			return true
		})
	}
}
