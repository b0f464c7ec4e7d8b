package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOneUvarintReader fails on a use of binary.Uvarint, binary.Varint,
// binary.ReadUvarint or binary.ReadVarint in a non-test file outside
// internal/codec: every binary format of the module reads its varints,
// counts and lengths through codec.Decoder, whose bounds checks cannot wrap
// and which sizes nothing past its input, so how a hostile length is refused
// is decided in one place. uvarintReaders names each function allowed its own
// reads, with the reason. It only shrinks: an entry whose function no longer
// reads a varint by hand fails too.
func TestOneUvarintReader(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module with its tests")
	}
	m := loadRepo(t)
	readers := map[string]bool{"Uvarint": true, "Varint": true, "ReadUvarint": true, "ReadVarint": true}
	codecPath := m.Path + "/internal/codec"
	var calls []string
	used := map[string]bool{}
	for _, pkg := range m.Pkgs {
		if pkg.Path == codecPath || strings.HasPrefix(pkg.Path, codecPath+"/") {
			continue
		}
		for _, f := range pkg.Files {
			if isTestFile(m, f) {
				continue
			}
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" || !readers[fn.Name()] {
						return true
					}
					if fd != nil {
						if sym := symbolName(pkg.Path, fd); uvarintReaders[sym] != "" {
							used[sym] = true
							return true
						}
					}
					pos := m.Fset.Position(id.Pos())
					rel, err := filepath.Rel(m.Root, pos.Filename)
					if err != nil {
						rel = pos.Filename
					}
					calls = append(calls, filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line)+": binary."+fn.Name())
					return true
				})
			}
		}
	}
	sort.Strings(calls)
	if len(calls) > 0 {
		t.Errorf("%d varint reads outside internal/codec: read through codec.Decoder instead:\n\t%s",
			len(calls), strings.Join(calls, "\n\t"))
	}
	var stale []string
	for sym := range uvarintReaders {
		if !used[sym] {
			stale = append(stale, sym)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("uvarintReaders names functions that read no varint by hand; delete the entries:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// uvarintReaders maps a function (as symbolName writes it) to the reason it
// reads varints itself rather than through codec.Decoder.
var uvarintReaders = map[string]string{
	"repro/internal/trace.uvarintColumn":               "a batch's unsigned column, one value a trace: the read is inlined, one-byte case first",
	"repro/internal/trace.varintColumn":                "a batch's signed column, one value a trace: the read is inlined",
	"repro/internal/trace.seqColumn":                   "a batch's delta-coded sequence column, one value a trace: the read is inlined",
	"repro/internal/trace.(*BatchView).decodeBranches": "every branch event of a batch: a call per event is what it must not pay",
	"repro/internal/trace.(*BatchView).checkEvents":    "every syscall, lock, wait and input event of a batch: a call per event is what it must not pay",
}
