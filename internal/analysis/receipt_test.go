package analysis

import (
	"go/ast"
	"go/parser"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The module itself, with its tests, loads once per test binary.
var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

func loadRepo(t *testing.T) *Module {
	t.Helper()
	repoOnce.Do(func() { repoMod, repoErr = Load(filepath.Join("..", ".."), LoadConfig{Tests: true}) })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoMod
}

// TestOnlyTheJournalMintsAReceipt type-checks snippets of a package outside
// internal/journal against the module: a journal.Receipt literal that sets a
// field, by name or by position, does not compile, and neither does a write
// to one. So only the journal makes a non-zero Receipt, and an apply that
// takes one runs after the record of its op. The zero Receipt compiles,
// which is why every apply panics on it.
func TestOnlyTheJournalMintsAReceipt(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module with its tests")
	}
	m := loadRepo(t)
	for _, c := range []struct{ name, decl, wantErr string }{
		{"named field", "var _ = journal.Receipt{op: &journal.Op{}}", "cannot refer to unexported field op"},
		{"positional fields", "var _ = journal.Receipt{&journal.Op{}, true}", "implicit assignment to unexported field"},
		{"field write", "func replayed(r *journal.Receipt) { r.replay = true }", "r.replay undefined"},
		{"zero value", "var _ = journal.Receipt{}", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := "package forge\n\nimport \"" + m.Path + "/internal/journal\"\n\n" + c.decl + "\n"
			f, err := parser.ParseFile(m.Fset, "forge.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			conf := types.Config{Importer: &moduleImporter{m: m}}
			_, err = conf.Check(m.Path+"/forge", m.Fset, []*ast.File{f}, nil)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("%s: %v", c.decl, err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("%s compiled outside internal/journal", c.decl)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("%s: error %q, want one naming %q", c.decl, err, c.wantErr)
			}
		})
	}
}
