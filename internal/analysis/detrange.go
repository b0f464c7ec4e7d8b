package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detrange forbids unordered map iteration from feeding order-sensitive
// sinks in deterministic packages. Go randomizes map iteration order per
// run, so a map range that appends to a slice, writes to a stream, or sends
// on a channel produces run-dependent output — which breaks bit-for-bit
// simulation equivalence (PR 1), journal replay ≡ live state (PR 3), and
// byte-identical wire/journal frames (PR 5).
//
// The fourth sink is an outer counter: a variable declared outside the
// range, advanced inside it from its own value (next++, offset += n,
// x = f(x)) and read into another value there
// (windows[key] = append(windows[key], next%nodes)). What each entry gets
// then depends on how many entries came before it, which is map order.
//
// Order-insensitive uses stay legal: folding into another map, summing,
// min/max selection, deletes. The one sanctioned order-sensitive idiom is
// collect-then-sort — appending keys/values to a slice (or storing them at a
// counter's index) that is passed to a sort call (sort.*, slices.Sort*, or a
// local sortXxx helper) later in the same function.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc: "in deterministic packages, ranging over a map must not feed order-sensitive " +
		"sinks (slice appends without a subsequent sort, stream writes, channel sends, " +
		"outer counters read into other values); map iteration order is randomized per run",
	Run: runDetrange,
}

func runDetrange(p *Pass) {
	if !inDeterministicPkg(p.Pkg.Path) {
		return
	}
	for _, file := range p.Pkg.Files {
		enclosingFuncs(file, func(fd *ast.FuncDecl) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if tv, ok := p.Pkg.Info.Types[rng.X]; !ok || !isMapType(tv.Type) {
					return true
				}
				checkMapRange(p, fd, rng)
				return true
			})
		})
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range body for order-sensitive sinks.
func checkMapRange(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := p.Pkg.Info
	mapName := exprString(rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SendStmt:
			p.Reportf(stmt.Arrow, "channel send inside range over map %s: map iteration order is randomized, so receive order is nondeterministic", mapName)
		case *ast.CallExpr:
			if isStreamWrite(info, stmt) {
				p.Reportf(stmt.Pos(), "stream write inside range over map %s: bytes are emitted in randomized map order", mapName)
			}
		case *ast.AssignStmt:
			if obj, call := appendTarget(info, stmt); obj != nil {
				if declaredInside(obj, rng) {
					return true
				}
				if sortedAfter(info, fd, obj, rng.End()) {
					return true
				}
				p.Reportf(call.Pos(), "append to %s inside range over map %s without a subsequent sort: element order is randomized per run (collect then sort, or iterate sorted keys)", obj.Name(), mapName)
			}
		}
		return true
	})
	checkOuterCounters(p, fd, rng)
}

// checkOuterCounters reports every read, inside the range body, of an outer
// variable the body advances, where the read sits in an assignment to
// something else: that value depends on how many iterations came before.
// An assignment that updates the counter itself (total += v, n = n + 1) is
// a fold, and a store at the counter's index into a slice sorted later is
// collect-then-sort.
func checkOuterCounters(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := p.Pkg.Info
	advanced := map[types.Object]bool{}
	advance := func(e ast.Expr) {
		if obj, ok := identObj(info, e).(*types.Var); ok && !declaredInside(obj, rng) {
			advanced[obj] = true
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IncDecStmt:
			advance(s.X)
		case *ast.AssignStmt:
			// Advanced means the new value derives from the old: x += n,
			// or x = f(x). A plain store (a lazily made map) is not.
			for i, lhs := range s.Lhs {
				switch {
				case s.Tok != token.ASSIGN && s.Tok != token.DEFINE:
					advance(lhs)
				case s.Tok == token.ASSIGN && len(s.Rhs) == len(s.Lhs) && mentions(info, s.Rhs[i], identObj(info, lhs)):
					advance(lhs)
				}
			}
		}
		return true
	})
	if len(advanced) == 0 {
		return
	}
	mapName := exprString(rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if advanced[identObj(info, lhs)] {
				return true // the counter's own update
			}
		}
		if len(as.Lhs) == 1 {
			if ix, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr); ok {
				if obj := identObj(info, ix.X); obj != nil && sortedAfter(info, fd, obj, rng.End()) {
					return true
				}
			}
		}
		ast.Inspect(as, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok && advanced[info.Uses[id]] {
				p.Reportf(id.Pos(), "%s is advanced inside range over map %s and read into another value: what each entry gets depends on randomized map order (iterate sorted keys)", id.Name, mapName)
			}
			return true
		})
		return true
	})
}

// mentions reports whether e refers to obj (a nil obj is never mentioned).
func mentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && obj != nil && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// appendTarget matches `x = append(x, ...)` / `x := append(x, ...)` and
// returns x's object and the append call.
func appendTarget(info *types.Info, as *ast.AssignStmt) (types.Object, *ast.CallExpr) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, nil
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, nil
	}
	obj := identObj(info, as.Lhs[0])
	if obj == nil {
		// Appends into fields/indexed slots are rarer; treat as a sink with
		// no sort exemption by reporting on the conservative side only when
		// the target is a struct-field selector (skip blank and complex).
		return nil, nil
	}
	if len(call.Args) == 0 || identObj(info, call.Args[0]) != obj {
		return nil, nil
	}
	return obj, call
}

// declaredInside reports whether obj's declaration lies within the range
// statement (per-iteration locals are order-safe: they don't accumulate).
func declaredInside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

// isStreamWrite matches writes to byte/string sinks: Write/WriteString/
// WriteByte/WriteRune methods and fmt.Fprint*/fmt.Print* calls.
func isStreamWrite(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	switch f.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		sig, ok := f.Type().(*types.Signature)
		return ok && sig.Recv() != nil
	case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
		return f.Pkg() != nil && f.Pkg().Path() == "fmt"
	}
	return false
}

// sortedAfter reports whether obj is passed to a recognized sort call after
// pos in the function body: sort.* / slices.Sort* package calls, or a local
// helper whose name starts with "sort" or contains "Sort" (sortFrontiers
// style).
func sortedAfter(info *types.Info, fd *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || !isSortFunc(f) {
			return true
		}
		for _, arg := range call.Args {
			if identObj(info, arg) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortFunc(f *types.Func) bool {
	if pkg := f.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
		return true
	}
	name := f.Name()
	if len(name) >= 4 && name[:4] == "sort" {
		return true
	}
	for i := 0; i+4 <= len(name); i++ {
		if name[i:i+4] == "Sort" {
			return true
		}
	}
	return false
}
