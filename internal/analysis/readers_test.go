package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExportHasAReader fails on an exported function or method,
// declared in a non-test file under internal/, that nothing reads, or that
// only its own package's _test.go files read. Such a name is code the
// system never runs: delete it, or move it into the package's
// export_test.go. A reader is any use outside the declaration's own body:
// production code anywhere in the module (internal/, cmd/, benchmark/, the
// root package), or the tests of another package, which is how shared test
// support (faultfs, leaktest, proggen.MustGenerate) earns its keep. A method
// that implements a method of an interface declared in the module or in a
// package the module imports counts as read, since a call through the
// interface names the interface method, not the concrete one. The interface
// method is then the name that needs a reader: a method of an exported
// interface declared under internal/ must be called through the interface
// outside its own package's tests, or every implementation of it is code
// nothing runs.
//
// Load skips external test packages (package foo_test): the root's
// example_test.go and internal/wire's fuzz_hostile_test.go. This test
// type-checks them itself against the loaded module and counts them as the
// tests of the package in their directory: the root's godoc examples read
// internal names through the public aliases, which counts, and what only
// wire's hostile-frame fuzzer reads is read only by wire's own tests.
func TestEveryExportHasAReader(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module with its tests")
	}
	m := loadRepo(t)
	ext, err := externalTests(m)
	if err != nil {
		t.Fatal(err)
	}
	if problems := unreadExports(m, ext); len(problems) > 0 {
		t.Errorf("%d exported functions, methods or interface methods in internal/ have no reader outside their own package's tests:\n\t%s",
			len(problems), strings.Join(problems, "\n\t"))
	}
}

// exportDecl is one exported function or method the rule inspects.
type exportDecl struct {
	fn    *types.Func
	pkg   *Package
	pos   token.Position
	body  [2]token.Pos // the declaration's extent: uses inside it are not readers
	iface bool         // a method of an exported interface: implementing it is not reading it
}

// externalTests type-checks every external test package (package foo_test)
// in the module against the loaded packages.
func externalTests(m *Module) ([]*Package, error) {
	dirs, err := packageDirs(m.Root, nil)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		pkg := &Package{Dir: dir}
		for _, name := range names {
			f, err := parser.ParseFile(m.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			if strings.HasSuffix(f.Name.Name, "_test") && buildableConstraints(f) {
				pkg.Path = f.Name.Name
				pkg.Files = append(pkg.Files, f)
			}
		}
		if len(pkg.Files) == 0 {
			continue
		}
		if err := m.typecheck(pkg); err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// unreadExports lists, in position order, every exported function or method,
// and every method of an exported interface, in a non-test file under
// internal/ with no reader but its own package's tests, counting the external
// test packages ext as tests of the package in their directory.
func unreadExports(m *Module, ext []*Package) []string {
	decls := map[*types.Func]*exportDecl{}
	for _, pkg := range m.Pkgs {
		if !strings.Contains(pkg.Path+"/", "/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			if isTestFile(m, f) {
				continue
			}
			for _, d := range f.Decls {
				for _, id := range interfaceMethods(d) {
					if fn, ok := pkg.Info.Defs[id].(*types.Func); ok {
						decls[fn] = &exportDecl{fn: fn, pkg: pkg, pos: m.Fset.Position(id.Pos()), body: [2]token.Pos{id.Pos(), id.End()}, iface: true}
					}
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				decls[fn] = &exportDecl{fn: fn, pkg: pkg, pos: m.Fset.Position(fd.Pos()), body: [2]token.Pos{fd.Pos(), fd.End()}}
			}
		}
	}

	// read[fn] is true once a use outside fn's own package's tests is seen;
	// ownTests[fn] once its own package's tests use it.
	read := map[*types.Func]bool{}
	ownTests := map[*types.Func]bool{}
	for _, pkg := range append(append([]*Package(nil), m.Pkgs...), ext...) {
		for _, f := range pkg.Files {
			test := isTestFile(m, f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				fn = fn.Origin()
				d := decls[fn]
				if d == nil || (id.Pos() >= d.body[0] && id.Pos() < d.body[1]) {
					return true
				}
				if test && pkg.Dir == d.pkg.Dir {
					ownTests[fn] = true
				} else {
					read[fn] = true
				}
				return true
			})
		}
	}

	ifaces := moduleInterfaces(m)
	var out []exportDecl
	for fn, d := range decls {
		if read[fn] || (!d.iface && implementsInterface(fn, ifaces)) {
			continue
		}
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	var lines []string
	for _, d := range out {
		rel, err := filepath.Rel(m.Root, d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		why := "no reader"
		if ownTests[d.fn] {
			why = "read only by its own package's tests"
		}
		lines = append(lines, filepath.ToSlash(rel)+":"+strconv.Itoa(d.pos.Line)+": "+exportName(d.fn)+": "+why)
	}
	return lines
}

// interfaceMethods returns the exported methods listed in the exported
// interface types d declares; an embedded interface's methods are checked
// where that interface is declared.
func interfaceMethods(d ast.Decl) []*ast.Ident {
	gd, ok := d.(*ast.GenDecl)
	if !ok || gd.Tok != token.TYPE {
		return nil
	}
	var out []*ast.Ident
	for _, spec := range gd.Specs {
		ts := spec.(*ast.TypeSpec)
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok || !ts.Name.IsExported() {
			continue
		}
		for _, f := range it.Methods.List {
			for _, id := range f.Names {
				if id.IsExported() {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

func isTestFile(m *Module, f *ast.File) bool {
	return strings.HasSuffix(m.Fset.Position(f.Package).Filename, "_test.go")
}

// exportName renders pkg.Func or pkg.Type.Method.
func exportName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// moduleInterfaces collects every named interface type declared in the
// module's packages and in every package they import, transitively, plus the
// universe's error.
func moduleInterfaces(m *Module) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.Pkgs {
		visit(pkg.Types)
	}
	return ifaces
}

// implementsInterface reports whether fn is a method whose receiver type, or
// a pointer to it, implements an interface that has a method of fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		named := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				named = true
				break
			}
		}
		if named && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}
