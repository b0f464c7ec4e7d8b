package analysis

import (
	"go/types"
)

// deterministicPkgs are the module-relative package suffixes whose state
// must evolve bit-for-bit identically across runs, worker counts, and
// crash-recovery replays: the fleet simulation (core), the collective
// execution tree and its frontier index (exectree), the write-ahead log
// (journal), and the hive's apply paths (TestParallelRunMatchesSequential,
// replay ≡ live); and every package without I/O that the experiments reach,
// whose tables are a golden (TestTablesGolden).
var deterministicPkgs = []string{
	"internal/core",
	"internal/exectree",
	"internal/journal",
	"internal/hive",

	"internal/baseline/cbi",
	"internal/baseline/wer",
	"internal/cluster",
	"internal/constraint",
	"internal/deadlock",
	"internal/experiments",
	"internal/fix",
	"internal/guidance",
	"internal/memo",
	"internal/pod",
	"internal/population",
	"internal/portfolio",
	"internal/prog",
	"internal/proggen",
	"internal/proof",
	"internal/sat",
	"internal/sched",
	"internal/stats",
	"internal/symbolic",
	"internal/trace",
}

func inDeterministicPkg(path string) bool {
	for _, suffix := range deterministicPkgs {
		if pathMatches(path, suffix) {
			return true
		}
	}
	return false
}

// wallclockFuncs are the time functions that smuggle the host clock into
// otherwise-deterministic state. Types (time.Duration) and constants stay
// legal; durability code that genuinely waits (group-commit windows) must
// carry an explicit //lint:allow wallclock with its justification.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// Wallclock forbids wall-clock reads and the global math/rand generator in
// deterministic packages. Randomness must come from the seeded
// internal/stats RNG; time must not influence simulation or journaled
// state at all.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "no time.Now/time.Since/timers or global math/rand in deterministic packages " +
		"(core, exectree, journal, hive and the packages the experiments reach); " +
		"use the seeded internal/stats RNG and explicit injected clocks",
	Run: runWallclock,
}

func runWallclock(p *Pass) {
	if !inDeterministicPkg(p.Pkg.Path) {
		return
	}
	for id, obj := range p.Pkg.Info.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		switch pkg.Path() {
		case "time":
			if _, isFunc := obj.(*types.Func); isFunc && wallclockFuncs[obj.Name()] {
				p.Reportf(id.Pos(), "call of time.%s in deterministic package %s: wall-clock time must not reach simulation or journaled state (inject a clock, or annotate a pure-durability wait)", obj.Name(), p.Pkg.Types.Name())
			}
		case "math/rand", "math/rand/v2":
			// Any use at all: the global generator is seeded from the OS and
			// shared across goroutines; even rand.New with a fixed seed hides
			// nondeterministic iteration once goroutines interleave. The
			// project's reproducible generator is internal/stats.RNG.
			if _, isPkgName := obj.(*types.PkgName); isPkgName {
				continue // the import ident itself; uses are reported per call
			}
			p.Reportf(id.Pos(), "use of %s.%s in deterministic package %s: use the seeded internal/stats RNG", pkg.Path(), obj.Name(), p.Pkg.Types.Name())
		}
	}
}
