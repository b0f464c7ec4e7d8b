package softborg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameLiveTests reads the CI workflow and checks that every
// alternative of every -run/-bench pattern still names something: `go test
// -run <name of a deleted test>` matches nothing and exits 0, so a gate
// whose test was renamed or removed would otherwise keep reporting green.
// Each alternative's first path element (sub-test and sub-benchmark names
// are not resolvable statically) must match a Test, Fuzz, Benchmark or
// Example function somewhere in the tree.
func TestCIPatternsNameLiveTests(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, kind := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
				if strings.HasPrefix(fn.Name.Name, kind) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	patterns := regexp.MustCompile(`-(run|bench)\s+(?:'([^']*)'|"([^"]*)"|(\S+))`).FindAllStringSubmatch(string(workflow), -1)
	if len(patterns) == 0 {
		t.Fatal("the workflow holds no -run or -bench pattern: this test reads the wrong file or the wrong syntax")
	}
	for _, m := range patterns {
		pattern := m[2] + m[3] + m[4]
		for _, alt := range strings.Split(pattern, "|") {
			if alt == "^$" {
				continue // the idiom for "no tests, benchmarks only"
			}
			top, _, _ := strings.Cut(alt, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("-%s %q: alternative %q: %v", m[1], pattern, alt, err)
				continue
			}
			live := false
			for _, name := range names {
				if live = re.MatchString(name); live {
					break
				}
			}
			if !live {
				t.Errorf("-%s pattern names %q, which matches no Test/Fuzz/Benchmark/Example function in the tree: that CI step runs nothing for it and still passes", m[1], alt)
			}
		}
	}
}

// TestDocsNameDeclaredFlags parses the FlagSet declarations of cmd/hive and
// cmd/pod and checks that every -flag their package comments or the CI
// workflow attribute to them is still declared: a PR that removes a flag
// tends to leave prose and scripts naming it, and neither compiles. A -flag
// that follows a hive or pod command word on its line (hive, ./cmd/hive,
// /tmp/pod) belongs to that command; any other -flag in a package comment
// belongs to the package's own command.
func TestDocsNameDeclaredFlags(t *testing.T) {
	declared := map[string]map[string]bool{}
	docs := map[string]string{}
	for _, cmd := range []string{"hive", "pod"} {
		file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", cmd, "main.go"), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		docs[cmd] = file.Doc.Text()
		flags := map[string]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
				return true
			}
			name := 0 // fs.Int(name, ...), fs.IntVar(&v, name, ...)
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				name = 1
			}
			if len(call.Args) > name {
				if lit, ok := call.Args[name].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					flags[strings.Trim(lit.Value, "`\"")] = true
				}
			}
			return true
		})
		if len(flags) == 0 || docs[cmd] == "" {
			t.Fatalf("cmd/%s: %d flag declarations and a %d-byte package comment: this test reads the wrong file or the wrong syntax", cmd, len(flags), len(docs[cmd]))
		}
		declared[cmd] = flags
	}
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}

	flagWord := regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	check := func(where, text, own string) {
		for _, line := range strings.Split(text, "\n") {
			cmd := own
			for _, word := range strings.Fields(line) {
				word = strings.TrimLeft(word, "(`\"'")
				if base := word[strings.LastIndex(word, "/")+1:]; declared[base] != nil {
					cmd = base
					continue
				}
				m := flagWord.FindStringSubmatch(word)
				if m == nil || cmd == "" {
					continue
				}
				if !declared[cmd][m[1]] {
					t.Errorf("%s names %s -%s, which cmd/%s does not declare", where, cmd, m[1], cmd)
				}
			}
		}
	}
	for cmd, doc := range docs {
		check("the package comment of cmd/"+cmd, doc, cmd)
	}
	check(".github/workflows/ci.yml", string(workflow), "")
}
