package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// journalGuard describes one protected function: it may only be called from
// the functions named as its callers.
type journalGuard struct {
	// callee is the protected function's name within internal/hive.
	callee string
	// callers are the internal/hive function names allowed to invoke it.
	callers map[string]bool
}

// journalGuards holds what the types cannot say about the hive's
// write-ahead discipline: that restore is single. That an op is journaled
// before it is applied is carried by journal.Receipt, which only
// internal/journal mints and every apply takes, and the write breaker is the
// journal's own state. One function turns a chain — a directory's at reboot,
// one in hand at import — into live state; a second reader of snapshots or
// journal ops would be a second restore path to keep equal to the first.
var journalGuards = []journalGuard{
	{callee: "recoverProgram", callers: set("Recover", "ImportProgram")},
	{callee: "restoreProgram", callers: set("recoverProgram")},
	{callee: "applyOp", callers: set("recoverProgram")},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// JournalFirst enforces, in internal/hive, the call-graph rule of
// journal-before-apply that journal.Receipt does not carry.
var JournalFirst = &Analyzer{
	Name: "journalfirst",
	Doc: "in internal/hive, the one restore path (recoverProgram, from " +
		"Recover and ImportProgram, and its restoreProgram/applyOp) is " +
		"reached only from boot and import; anything else would open a " +
		"second way to restore a program",
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
				if f == nil || f.Pkg() != p.Pkg.Types {
					return true
				}
				g, protected := guards[f.Name()]
				if !protected || g.callers[caller] || caller == g.callee {
					return true
				}
				p.Reportf(call.Pos(), "%s called from %s: it is reachable only from %s", f.Name(), caller, allowedCallers(g))
				return true
			})
		})
	}
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
