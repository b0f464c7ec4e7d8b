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
