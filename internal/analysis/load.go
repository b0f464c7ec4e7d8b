package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Files are the parsed (build-constraint-filtered) source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression/object facts.
	Info *types.Info
}

// Module is the loaded module: every package, type-checked, in dependency
// order, sharing one FileSet.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	Fset *token.FileSet
	// Pkgs is every loaded package in topological (dependency-first) order.
	Pkgs []*Package

	byPath map[string]*Package
}

// LoadConfig controls module loading.
type LoadConfig struct {
	// Tests includes _test.go files of the package itself (external _test
	// packages are never loaded).
	Tests bool
	// Skip lists directory names pruned from the walk in addition to the
	// defaults (testdata, vendor, hidden and underscore-prefixed dirs).
	Skip []string
}

// stdlib importing is shared process-wide: the source importer re-typechecks
// the standard library from $GOROOT/src, which is expensive enough to do
// once. The shared FileSet keeps stdlib and module positions in one space.
var (
	stdOnce sync.Once
	stdImp  types.ImporterFrom
	stdFset = token.NewFileSet()
)

func stdImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		// The pure-Go stdlib is enough for type facts, and cgo translation
		// is unavailable in hermetic environments.
		build.Default.CgoEnabled = false
		stdImp = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	})
	return stdImp
}

// Load parses and type-checks the module containing dir.
func Load(dir string, cfg LoadConfig) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   stdFset,
		byPath: map[string]*Package{},
	}

	dirs, err := packageDirs(root, cfg.Skip)
	if err != nil {
		return nil, err
	}

	type parsed struct {
		pkg     *Package
		imports []string
	}
	byPath := map[string]*parsed{}
	var paths []string
	for _, d := range dirs {
		pp, err := m.parseDir(d, cfg.Tests)
		if err != nil {
			return nil, err
		}
		if pp == nil || len(pp.Files) == 0 {
			continue
		}
		imports := map[string]bool{}
		for _, f := range pp.Files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					imports[p] = true
				}
			}
		}
		var deps []string
		for p := range imports {
			deps = append(deps, p)
		}
		sort.Strings(deps)
		byPath[pp.Path] = &parsed{pkg: pp, imports: deps}
		paths = append(paths, pp.Path)
	}
	sort.Strings(paths)

	// Topological order over intra-module imports.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case gray:
			return fmt.Errorf("analysis: import cycle through %s", p)
		case black:
			return nil
		}
		state[p] = gray
		pp := byPath[p]
		if pp != nil {
			for _, dep := range pp.imports {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = black
		if pp != nil {
			order = append(order, p)
		}
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	for _, p := range order {
		pkg := byPath[p].pkg
		if err := m.typecheck(pkg); err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
		m.byPath[p] = pkg
	}
	return m, nil
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// packageDirs lists candidate package directories under root.
func packageDirs(root string, skip []string) ([]string, error) {
	skipName := map[string]bool{"testdata": true, "vendor": true}
	for _, s := range skip {
		skipName[s] = true
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (skipName[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the buildable files of one directory into a Package (sans
// type information). Returns nil if the directory holds no Go package.
func (m *Module) parseDir(dir string, tests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	names := map[string]int{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !tests {
			continue
		}
		full := filepath.Join(dir, name)
		if !buildableFilename(name) {
			continue
		}
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !buildableConstraints(f) {
			continue
		}
		pkgName := f.Name.Name
		if strings.HasSuffix(pkgName, "_test") {
			// External test packages are out of scope.
			continue
		}
		names[pkgName]++
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	// Dominant package name wins (directories normally hold exactly one).
	best, bestN := "", 0
	for n, c := range names {
		if c > bestN || (c == bestN && n < best) {
			best, bestN = n, c
		}
	}
	var kept []*ast.File
	for _, f := range files {
		if f.Name.Name == best {
			kept = append(kept, f)
		}
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	return &Package{Path: path, Dir: dir, Files: kept}, nil
}

// knownOS / knownArch drive filename-implied build constraints.
var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}
var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

// buildableFilename applies GOOS/GOARCH filename conventions.
func buildableFilename(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	base = strings.TrimSuffix(base, "_test")
	parts := strings.Split(base, "_")
	if len(parts) >= 2 {
		last := parts[len(parts)-1]
		prev := parts[len(parts)-2]
		if knownArch[last] {
			if last != runtime.GOARCH {
				return false
			}
			if knownOS[prev] && prev != runtime.GOOS {
				return false
			}
			return true
		}
		if knownOS[last] {
			return last == runtime.GOOS
		}
	}
	return true
}

// buildableConstraints evaluates a file's //go:build (and +build) lines for
// the host platform with no extra tags set (so files behind tags like
// "race" are excluded, matching the default build).
func buildableConstraints(f *ast.File) bool {
	for _, g := range f.Comments {
		// Constraints must precede the package clause.
		if g.Pos() >= f.Package {
			break
		}
		for _, c := range g.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			ok := expr.Eval(func(tag string) bool {
				switch {
				case tag == runtime.GOOS || tag == runtime.GOARCH:
					return true
				case tag == "unix":
					return knownUnix[runtime.GOOS]
				case strings.HasPrefix(tag, "go1."):
					// The analysis toolchain is at least as new as the
					// module's language version.
					return true
				}
				return false
			})
			if !ok {
				return false
			}
		}
	}
	return true
}

var knownUnix = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// typecheck runs go/types over one package, resolving intra-module imports
// from already-checked packages and everything else from stdlib source.
func (m *Module) typecheck(pkg *Package) error {
	conf := types.Config{
		Importer: &moduleImporter{m: m},
		Error:    func(err error) {}, // first hard error is returned below
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("analysis: typecheck %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// moduleImporter resolves imports during type-checking.
type moduleImporter struct {
	m *Module
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == mi.m.Path || strings.HasPrefix(path, mi.m.Path+"/") {
		if p := mi.m.byPath[path]; p != nil {
			return p.Types, nil
		}
		return nil, fmt.Errorf("analysis: module package %s not loaded (import cycle or parse skip)", path)
	}
	return stdImporter().ImportFrom(path, dir, mode)
}
