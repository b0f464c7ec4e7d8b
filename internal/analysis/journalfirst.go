package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// journalGuard describes one protected function: it may only be called from
// the functions named as its callers.
type journalGuard struct {
	// callee is the protected function's name within internal/hive, or
	// journal.<Type>.<method> for a method of a type in internal/journal.
	callee string
	// callers are the internal/hive function names allowed to invoke it.
	callers map[string]bool
}

// journalGuards holds what the types cannot say about the hive's
// write-ahead discipline. That an op is journaled before it is applied is
// carried by journal.Receipt, which only internal/journal mints and every
// apply takes; these rows keep restore single, every live append counted by
// the read-only breaker, and the breaker closed only by a landed checkpoint.
var journalGuards = []journalGuard{
	// One function turns a chain — a directory's at reboot, one in hand at
	// import — into live state. A second reader of snapshots or journal ops
	// would be a second restore path to keep equal to the first.
	{callee: "recoverProgram", callers: set("Recover", "ImportProgram")},
	{callee: "restoreProgram", callers: set("recoverProgram")},
	{callee: "applyOp", callers: set("recoverProgram")},
	// The receipt-minting append runs inside the breaker's failure
	// accounting. Appending around the wrapper would let a full disk fail
	// silently without ever tripping the breaker.
	{callee: "journal.Store.Commit", callers: set("journalBatchAppend")},
	// The breaker may only close once a checkpoint has landed durably —
	// closing it anywhere else would ack ingest into an unproven journal.
	// And the checkpoint itself is reached two ways only: on the timer, and
	// as the durable tail of an import, which thereby lands through the very
	// path the breaker trusts instead of writing a snapshot of its own.
	{callee: "closeReadOnly", callers: set("checkpointLocked")},
	{callee: "checkpointLocked", callers: set("CheckpointProgram", "ImportProgram")},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// JournalFirst enforces, in internal/hive, the call-graph rules of
// journal-before-apply that journal.Receipt does not carry.
var JournalFirst = &Analyzer{
	Name: "journalfirst",
	Doc: "in internal/hive, the one restore path (recoverProgram, from " +
		"Recover and ImportProgram, and its restoreProgram/applyOp) is " +
		"reached only from boot and import, the journal's receipt-minting " +
		"append (journal.Store.Commit) only from the breaker-accounted " +
		"journalBatchAppend, and the breaker closes (closeReadOnly) only " +
		"from the checkpoint path (checkpointLocked, from CheckpointProgram " +
		"and ImportProgram); anything else would open a second way to " +
		"restore a program, append past the read-only breaker, or ack " +
		"ingest into an unproven journal",
	Run: runJournalFirst,
}

func runJournalFirst(p *Pass) {
	if !pathMatches(p.Pkg.Path, "internal/hive") {
		return
	}
	declared := map[string]bool{}
	for _, file := range p.Pkg.Files {
		enclosingFuncs(file, func(fd *ast.FuncDecl) { declared[funcName(fd)] = true })
	}
	for _, imp := range p.Pkg.Types.Imports() {
		if !pkgMatches(imp, "internal/journal") {
			continue
		}
		for _, name := range imp.Scope().Names() {
			if named := namedOf(imp.Scope().Lookup(name).Type()); named != nil {
				for i := 0; i < named.NumMethods(); i++ {
					declared["journal."+name+"."+named.Method(i).Name()] = true
				}
			}
		}
	}
	guards := map[string]*journalGuard{}
	for i := range journalGuards {
		g := &journalGuards[i]
		guards[g.callee] = g
		// Rows match by name, so a row naming a function nobody declares
		// guards nothing: a rename must take its row along.
		for _, name := range append([]string{g.callee}, sortedCallers(g)...) {
			if !declared[name] {
				p.Reportf(p.Pkg.Files[0].Package, "the guard on %s names %s, which is not declared: a renamed or deleted function silently empties the rule (update journalGuards)", g.callee, name)
			}
		}
	}
	for _, file := range p.Pkg.Files {
		enclosingFuncs(file, func(fd *ast.FuncDecl) {
			caller := funcName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(p.Pkg.Info, call)
				if f == nil {
					return true
				}
				name := guardName(p, f)
				g, protected := guards[name]
				if !protected || g.callers[caller] || caller == g.callee {
					return true
				}
				p.Reportf(call.Pos(), "%s called from %s: it is reachable only from %s", name, caller, allowedCallers(g))
				return true
			})
		})
	}
}

// guardName names a called function as journalGuards does: a function of
// the package under analysis by its name, a method of a type in
// internal/journal as journal.<Type>.<method>, anything else "".
func guardName(p *Pass, f *types.Func) string {
	if f.Pkg() == p.Pkg.Types {
		return f.Name()
	}
	if recv := recvNamed(f); recv != nil && pkgMatches(f.Pkg(), "internal/journal") {
		return "journal." + recv.Obj().Name() + "." + f.Name()
	}
	return ""
}

func allowedCallers(g *journalGuard) string {
	return strings.Join(sortedCallers(g), "/")
}

// sortedCallers lists a guard's callers in name order: deterministic message
// text.
func sortedCallers(g *journalGuard) []string {
	names := make([]string, 0, len(g.callers))
	for n := range g.callers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
