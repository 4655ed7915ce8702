package lint

import (
	"go/ast"
	"strings"
)

// DeterministicPackages lists the import paths (a trailing /... matches a
// subtree) whose results the determinism contract pins bitwise. The
// seedrand rule applies only inside these packages; drivers and tests may
// override the list.
var DeterministicPackages = []string{
	"anchor/internal/cooc",
	"anchor/internal/embtrain",
	"anchor/internal/core",
	"anchor/internal/matrix",
	"anchor/internal/nn",
	"anchor/internal/autodiff",
	"anchor/internal/query",
	"anchor/internal/compress",
	"anchor/internal/selection",
	"anchor/internal/tasks/...",
	// The fault-injection harness must itself be deterministic — a chaos
	// run that cannot be replayed from its seed is useless as evidence.
	"anchor/internal/faults",
}

// IsDeterministicPkg reports whether the import path falls under
// DeterministicPackages.
func IsDeterministicPkg(path string) bool {
	for _, p := range DeterministicPackages {
		if sub, ok := strings.CutSuffix(p, "/..."); ok {
			if path == sub || strings.HasPrefix(path, sub+"/") {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the shared global source. Constructors like
// New and NewSource are fine: the contract requires explicitly seeded
// per-shard *rand.Rand values, which is exactly what they build.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true, "N": true,
}

// envFuncs are stdlib functions whose results depend on the clock or the
// process environment — values that change between runs and machines.
var envFuncs = map[[2]string]bool{
	{"time", "Now"}: true, {"time", "Since"}: true, {"time", "Until"}: true,
	{"time", "After"}: true, {"time", "AfterFunc"}: true, {"time", "Tick"}: true,
	{"time", "NewTimer"}: true, {"time", "NewTicker"}: true,
	{"os", "Getenv"}: true, {"os", "LookupEnv"}: true, {"os", "Environ"}: true,
}

// SeedRand enforces the seeded-RNG clause of the determinism contract: in
// a deterministic package, every random draw must come from an explicitly
// seeded generator (parallel.ShardRNG derives one per shard and round),
// never from the process-global math/rand source, and no value may be
// derived from the clock or the environment.
var SeedRand = &Analyzer{
	Name: "seedrand",
	Doc: "flags global math/rand functions and clock/env-derived values " +
		"(time.Now, os.Getenv, timers) inside deterministic packages; " +
		"randomness there must flow from seeded per-shard RNGs " +
		"(internal/parallel.ShardRNG)",
	Run: runSeedRand,
}

func runSeedRand(pass *Pass) error {
	if !IsDeterministicPkg(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFunc(pass.TypesInfo, call)
			if !ok {
				return true
			}
			switch {
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[name]:
				pass.Reportf(call.Pos(),
					"global %s.%s in deterministic package %s: draw from a seeded per-shard RNG (parallel.ShardRNG) instead",
					pkgPath, name, pass.PkgPath)
			case envFuncs[[2]string{pkgPath, name}]:
				pass.Reportf(call.Pos(),
					"%s.%s in deterministic package %s: clock/environment-derived values break run-to-run determinism",
					pkgPath, name, pass.PkgPath)
			}
			return true
		})
	}
	return nil
}
