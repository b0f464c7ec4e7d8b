package analysis

import (
	"bufio"
	"bytes"
	"go/ast"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryFunctionIsLinked fails on a function or method, declared in a
// non-test file of a package that is not a main, that no binary of the
// module links: code the system never runs, whatever the tests run. It
// builds every main (benchmark, cmd/*, examples/*) with inlining off into a
// temporary directory in one go build, lists the text symbols of each with
// go tool nm, and names every declaration missing from all of them. A method
// of a generic type, or a generic function, is linked under its
// instantiations' shapes (memo.(*Memo[go.shape.string,…]).Get), so symbols
// are compared with their type arguments cut out.
//
// unlinkedAllowed names each exception with its reason. It only shrinks: an
// entry that a binary now links, or that names nothing declared, fails too.
// The test asks what the linker keeps, so it sees unexported functions and
// methods reached only through an interface; TestEveryExportHasAReader asks
// the source, and is the one that checks interface methods and exports read
// only by another package's tests.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	m := loadRepo(t)
	var mains []string
	for _, pkg := range m.Pkgs {
		if pkg.Types.Name() == "main" {
			mains = append(mains, pkg.Path)
		}
	}
	if len(mains) == 0 {
		t.Fatal("the module has no main package")
	}
	// go test puts its own toolchain's go first on the PATH.
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	build.Dir = m.Root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build of %d mains: %v\n%s", len(mains), err, out)
	}
	bins, err := filepath.Glob(filepath.Join(bin, "*"))
	if err != nil || len(bins) != len(mains) {
		t.Fatalf("built %d binaries (%v) for %d mains", len(bins), err, len(mains))
	}
	nm := exec.Command("go", append([]string{"tool", "nm"}, bins...)...)
	out, err := nm.Output()
	if err != nil {
		t.Fatalf("go tool nm: %v", err)
	}
	linked := linkedSymbols(out)

	var unlinked []string
	used := map[string]bool{}
	for _, pkg := range m.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		for _, f := range pkg.Files {
			if isTestFile(m, f) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				sym := symbolName(pkg.Path, fd)
				if linked[sym] {
					continue
				}
				if key := allowedBy(sym, pkg.Path); key != "" {
					used[key] = true
					continue
				}
				pos := m.Fset.Position(fd.Pos())
				rel, err := filepath.Rel(m.Root, pos.Filename)
				if err != nil {
					rel = pos.Filename
				}
				unlinked = append(unlinked, filepath.ToSlash(rel)+": "+sym)
			}
		}
	}
	sort.Strings(unlinked)
	if len(unlinked) > 0 {
		t.Errorf("%d functions or methods are linked into none of the %d binaries: delete them, move them into a _test.go file, or give them a production reader:\n\t%s",
			len(unlinked), len(bins), strings.Join(unlinked, "\n\t"))
	}
	var stale []string
	for key := range unlinkedAllowed {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("unlinkedAllowed names what a binary links or nothing declares; delete the entries:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// unlinkedAllowed maps a symbol (as symbolName writes it), or a whole
// package's import path, to the reason it stays although no binary links it.
var unlinkedAllowed = map[string]string{
	"repro/internal/faultfs":         "test support: the fault-injecting journal.FS of the durability tests",
	"repro/internal/leaktest":        "test support: the goroutine-leak check of the server tests",
	"repro/internal/codec/codectest": "test support: the hostile-count cases every codec's tests replay",

	"repro/internal/chaos":                        "ROADMAP item 17 gives it a reader (E16–E18 as experiments); only chaos_e17_test.go runs it",
	"repro/internal/hive.(*Hive).DropProgram":     "ROADMAP item 17: the re-homing scenario of chaos calls it",
	"repro/internal/journal.(*Store).ExportChain": "ROADMAP item 17: chaos exports a chain from a dead hive's store",
	"repro/internal/ring.New":                     "ROADMAP item 17: chaos builds its placement rings",
	"repro/internal/ring.(*Map).Without":          "ROADMAP item 17: chaos removes a killed member",
	"repro/internal/proggen.Bug.Triggered":        "ROADMAP item 11 reads it to score the fleet against planted bugs",

	"repro/internal/exectree.(*Tree).FrontiersByWalk": "reference: the tests hold the incremental frontier index to this full walk",
	"repro/internal/exectree.sortFrontiers":           "reference: FrontiersByWalk's order",
	"repro/internal/exectree.frontierLess":            "reference: FrontiersByWalk's order",
	"repro/internal/exectree.(*Tree).FrontiersAll":    "reference: the whole open set, sorted, which the tests compare trees by",
	"repro/internal/sat.(*Formula).Eval":              "reference: the solver tests check every model against it",
	"repro/internal/deadlock.FromCycle":               "reference: the signature the tests derive from a machine's cycle; the hive derives it from a trace (FromWaits)",

	"repro/internal/baseline/cbi.(*Aggregator).Stats":          "test support: core's tests read the aggregator's counts through it",
	"repro/internal/proggen.MustGenerate":                      "test support: Generate for other packages' tests",
	"repro/internal/prog.(*Builder).Load":                      "test support: only hand-built test programs use memory (proggen emits none)",
	"repro/internal/prog.(*Builder).Store":                     "test support: only hand-built test programs use memory (proggen emits none)",
	"repro/internal/prog.(*Builder).SetMem":                    "test support: only hand-built test programs use memory (proggen emits none)",
	"repro/internal/prog.(*Builder).Mul":                       "test support: only hand-built test programs multiply (proggen emits none)",
	"repro/internal/prog.(*Program).NumInputDependentBranches": "read by the root package's godoc example",

	"repro/internal/constraint.Constraint.String":    "debugging String method",
	"repro/internal/constraint.Expr.String":          "debugging String method",
	"repro/internal/constraint.Expr.Vars":            "Expr.String's variable order",
	"repro/internal/constraint.PathCondition.String": "debugging String method",
	"repro/internal/constraint.Verdict.String":       "debugging String method",
	"repro/internal/proggen.BugKind.String":          "debugging String method",

	"repro/internal/wire.(*Router).Guidance": "pod.HiveClient needs it; no main steers a pod through a Router yet",
	"repro.ExploreTree":                      "the root package's API for cluster.Explore; E8 calls cluster.Explore itself",
}

// allowedBy returns the unlinkedAllowed key that covers sym, declared in
// package pkgPath, or "" if none does.
func allowedBy(sym, pkgPath string) string {
	if _, ok := unlinkedAllowed[sym]; ok {
		return sym
	}
	if _, ok := unlinkedAllowed[pkgPath]; ok {
		return pkgPath
	}
	return ""
}

// symbolName is the linker's name for fd, declared in package pkgPath, with
// any type parameters left out: pkg.F, pkg.T.M or pkg.(*T).M.
func symbolName(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return pkgPath + "." + recv + "." + fd.Name.Name
}

// linkedSymbols parses go tool nm output (one binary's or several's, each
// line "[file:] address type name") into the set of text symbol names, each
// with its bracketed type arguments cut out.
func linkedSymbols(out []byte) map[string]bool {
	linked := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
			fields = fields[1:]
		}
		if len(fields) >= 3 && (fields[1] == "T" || fields[1] == "t") {
			linked[stripTypeArgs(strings.Join(fields[2:], " "))] = true
		}
	}
	return linked
}

// stripTypeArgs cuts every bracketed span, nested ones included, out of a
// symbol name.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
