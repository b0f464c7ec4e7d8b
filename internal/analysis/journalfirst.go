package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// journalGuard describes one protected live-mutation helper: a function in
// internal/hive that mutates recoverable state and therefore may only run
// after its operation has been journaled (or while replaying the journal).
type journalGuard struct {
	// callee is the protected function's name within the package.
	callee string
	// callers are the function names allowed to invoke it.
	callers map[string]bool
}

// journalGuards encodes the hive's write-ahead discipline (PR 3): every
// mutation is appended to the journal *before* it is applied, so the only
// legal callers of the apply helper are the one ingest path (which appends
// first) and recovery replay (which applies ops already journaled). A
// handler calling the apply helper directly would mutate state that a
// crash forgets — the exact bug class the journal exists to prevent.
var journalGuards = []journalGuard{
	// One function turns a chain — a directory's at reboot, one in hand at
	// import — into live state. A second reader of snapshots or journal ops
	// would be a second restore path to keep equal to the first.
	{callee: "recoverProgram", callers: set("Recover", "ImportProgram")},
	{callee: "restoreProgram", callers: set("recoverProgram")},
	{callee: "applyOp", callers: set("recoverProgram")},
	{callee: "applyBatchView", callers: set("SubmitColumnarSession", "applyOp")},
	// Fix synthesis journals its own outcome op (through the breaker, ahead
	// of publishing the fix); it may only be elected from within an applied
	// batch, never ad hoc.
	{callee: "synthesizeFix", callers: set("applyBatchView")},
	// The dedup window must only advance for journaled (or replayed)
	// frames; marking a session outside those paths would let a crash
	// acknowledge-and-forget a frame.
	{callee: "markSession", callers: set("SubmitColumnarSession", "applyOp", "mergeSessions")},
	// PR 10: the read-only breaker's failure accounting wraps every live
	// batch append. Appending to the journal around the wrapper would let
	// a full disk fail silently without ever tripping the breaker.
	{callee: "journalBatchAppend", callers: set("SubmitColumnarSession", "certify", "synthesizeFix", "Prove")},
	// A live certificate is journaled ahead of its apply by one function,
	// which expects its caller to hold the checkpoint gate: the two engines
	// that refute frontiers reach it, nothing else does.
	{callee: "certify", callers: set("Guidance", "Prove")},
	// The breaker may only close once a checkpoint has landed durably —
	// closing it anywhere else would ack ingest into an unproven journal.
	// And the checkpoint itself is reached two ways only: on the timer, and
	// as the durable tail of an import, which thereby lands through the very
	// path the breaker trusts instead of writing a snapshot of its own.
	{callee: "closeReadOnly", callers: set("checkpointLocked")},
	{callee: "checkpointLocked", callers: set("CheckpointProgram", "ImportProgram")},
}

// journalOpAuthors names, for each kind of journal op a live mutation
// journals, the one function in internal/hive that may build its journal.Op
// literal. The guards above check who calls the journaling functions; this
// table checks that the op itself has no second author, so no other function
// can append it around them.
var journalOpAuthors = []struct{ kind, author string }{
	{"OpBatchColumnar", "SubmitColumnarSession"},
	{"OpSynthesis", "synthesizeFix"},
	{"OpCert", "certify"},
	{"OpProof", "Prove"},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// JournalFirst enforces journal-ahead-of-apply reachability in
// internal/hive.
var JournalFirst = &Analyzer{
	Name: "journalfirst",
	Doc: "in internal/hive, a journal.Op literal of a live kind is built " +
		"only by its one author (OpBatchColumnar in SubmitColumnarSession, " +
		"OpSynthesis in synthesizeFix, OpCert in certify, OpProof in Prove), " +
		"and live-mutation helpers (applyBatchView, " +
		"synthesizeFix, markSession, journalBatchAppend, closeReadOnly) " +
		"are reachable only from the one ingest path " +
		"(SubmitColumnarSession), the one certificate path (certify, from " +
		"Guidance and Prove), the one restore path (recoverProgram, " +
		"from Recover and ImportProgram, and its restoreProgram/applyOp/" +
		"mergeSessions), or the checkpoint path (checkpointLocked, from " +
		"CheckpointProgram and ImportProgram); calling them from handlers " +
		"would apply state a crash forgets, bypass the read-only breaker, " +
		"or open a second way to restore a program",
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
		// Rows match by name, so a row naming a function the package no
		// longer declares guards nothing: a rename must take its row along.
		for _, name := range append([]string{g.callee}, sortedCallers(g)...) {
			if !declared[name] {
				p.Reportf(p.Pkg.Files[0].Package, "the guard on %s names %s, which %s does not declare: a renamed or deleted function silently empties the rule (update journalGuards)", g.callee, name, p.Pkg.Path)
			}
		}
	}
	for _, row := range journalOpAuthors {
		if !declared[row.author] {
			p.Reportf(p.Pkg.Files[0].Package, "the %s literal row names %s, which %s does not declare: a renamed or deleted function silently empties the rule (update journalOpAuthors)", row.kind, row.author, p.Pkg.Path)
		}
	}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			fd, _ := d.(*ast.FuncDecl)
			builder := funcName(fd)
			ast.Inspect(d, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				kind := journalOpKind(p, lit)
				for _, row := range journalOpAuthors {
					if row.kind == kind && row.author != builder {
						p.Reportf(lit.Pos(), "journal.Op literal of kind %s built in %s: only %s builds one, so each reaches the journal by the road the guards check", kind, builder, row.author)
					}
				}
				return true
			})
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
				p.Reportf(call.Pos(), "%s called from %s: %s mutates journaled state and is reachable only from %s (journal the op first, or route through the journaled wrapper)", f.Name(), caller, f.Name(), allowedCallers(g))
				return true
			})
		})
	}
}

// journalOpKind returns the name of the internal/journal constant a
// journal.Op literal sets as its Kind, or "".
func journalOpKind(p *Pass, lit *ast.CompositeLit) string {
	tv, ok := p.Pkg.Info.Types[lit]
	if !ok {
		return ""
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Name() != "Op" || !pkgMatches(named.Obj().Pkg(), "internal/journal") {
		return ""
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Kind" {
			continue
		}
		var id *ast.Ident
		switch v := ast.Unparen(kv.Value).(type) {
		case *ast.Ident:
			id = v
		case *ast.SelectorExpr:
			id = v.Sel
		}
		if id == nil {
			return ""
		}
		if c, ok := p.Pkg.Info.Uses[id].(*types.Const); ok && pkgMatches(c.Pkg(), "internal/journal") {
			return c.Name()
		}
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
