package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPath holds E1–E12 as cmd/softborg-bench prints them, less its
// "[E… completed in …]" lines: every table is seed-deterministic, so any
// changed cell is a change of behaviour, not noise.
var goldenPath = filepath.Join("testdata", "tables.golden")

// TestTablesGolden runs every experiment and compares the rendered tables
// with the committed golden. A change that moves a cell on purpose
// regenerates it with EXPERIMENTS_UPDATE=1 and explains each changed cell in
// EXPERIMENTS.md.
func TestTablesGolden(t *testing.T) {
	var out strings.Builder
	for _, s := range All() {
		tbl, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		out.WriteString(tbl.Render())
		out.WriteString("\n\n")
	}
	got := []byte(out.String())
	if os.Getenv("EXPERIMENTS_UPDATE") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with EXPERIMENTS_UPDATE=1 to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n want %q\n  got %q", goldenPath, i+1, w, g)
		}
	}
}
