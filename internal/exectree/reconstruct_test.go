package exectree

import (
	"errors"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// buildMixed returns a program where deterministic and input-dependent
// branches interleave:
//
//	r1 = 3
//	if r1 == 3 (det, taken) { if input > 10 (dep) { sys = syscall; if sys > 100 (dep) {...} } }
func buildMixed(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("mixed", 1)
	end := b.NewLabel()
	depPart := b.NewLabel()
	b.Const(1, 3)
	b.BrImm(1, prog.CmpEQ, 3, depPart) // det branch 0, always taken
	b.Halt()
	b.Bind(depPart)
	b.Input(0, 0)
	inner := b.NewLabel()
	b.BrImm(0, prog.CmpGT, 10, inner) // dep branch 1
	b.Jmp(end)
	b.Bind(inner)
	b.Syscall(2, 4, 0)
	b.BrImm(2, prog.CmpGT, 100, end) // dep branch 2 (syscall)
	b.Bind(end)
	b.Halt()
	return b.MustBuild()
}

func captureBoth(t *testing.T, p *prog.Program, input int64, seed uint64) (full, ext *trace.Trace) {
	t.Helper()
	for _, mode := range []trace.CaptureMode{trace.CaptureFull, trace.CaptureExternalOnly} {
		col := trace.NewCollector(p, mode, 0, 1)
		m, err := prog.NewMachine(p, prog.Config{
			Input:    []int64{input},
			Observer: col,
			Syscalls: &prog.DeterministicSyscalls{Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		tr := col.Finish("pod", 0, res, []int64{input}, trace.PrivacyHashed, "s")
		if mode == trace.CaptureFull {
			full = tr
		} else {
			ext = tr
		}
	}
	return full, ext
}

func TestReconstructMatchesFullTrace(t *testing.T) {
	p := buildMixed(t)
	for _, input := range []int64{0, 11, 200} {
		for _, seed := range []uint64{1, 2, 3} {
			full, ext := captureBoth(t, p, input, seed)
			if len(ext.Branches) >= len(full.Branches) {
				t.Fatalf("input %d: external-only did not drop anything (%d vs %d)",
					input, len(ext.Branches), len(full.Branches))
			}
			got, err := Reconstruct(p, ext)
			if err != nil {
				t.Fatalf("input %d seed %d: %v", input, seed, err)
			}
			if len(got) != len(full.Branches) {
				t.Fatalf("input %d: reconstructed %d events, want %d", input, len(got), len(full.Branches))
			}
			for i := range got {
				if got[i] != full.Branches[i] {
					t.Fatalf("input %d: event %d = %v, want %v", input, i, got[i], full.Branches[i])
				}
			}
		}
	}
}

func TestReconstructedPathsMergeIdentically(t *testing.T) {
	p := buildMixed(t)
	treeFull := New(p.ID)
	treeExt := New(p.ID)
	for input := int64(0); input < 40; input++ {
		full, ext := captureBoth(t, p, input, uint64(input))
		treeFull.Merge(full.Branches, full.Outcome)
		path, err := Reconstruct(p, ext)
		if err != nil {
			t.Fatalf("input %d: %v", input, err)
		}
		treeExt.Merge(path, ext.Outcome)
	}
	sf, se := treeFull.Stats(), treeExt.Stats()
	if sf.Nodes != se.Nodes || sf.Paths != se.Paths || sf.EdgesCovered != se.EdgesCovered {
		t.Fatalf("trees differ: full %+v vs reconstructed %+v", sf, se)
	}
}

func TestReconstructRejectsWrongProgram(t *testing.T) {
	p := buildMixed(t)
	other := prog.NewBuilder("other", 1).Input(0, 0).Halt().MustBuild()
	_, ext := captureBoth(t, p, 5, 1)
	if _, err := Reconstruct(other, ext); !errors.Is(err, ErrReconstruct) {
		t.Fatalf("err = %v, want ErrReconstruct", err)
	}
}

func TestReconstructRejectsFullMode(t *testing.T) {
	p := buildMixed(t)
	full, _ := captureBoth(t, p, 5, 1)
	if _, err := Reconstruct(p, full); !errors.Is(err, ErrReconstruct) {
		t.Fatalf("err = %v, want ErrReconstruct", err)
	}
}

func TestReconstructDetectsCorruptStream(t *testing.T) {
	p := buildMixed(t)
	_, ext := captureBoth(t, p, 200, 1)
	if len(ext.Branches) < 2 {
		t.Skip("need at least 2 recorded branches")
	}
	// Swap the branch ids to corrupt the stream.
	ext.Branches[0].ID, ext.Branches[1].ID = ext.Branches[1].ID, ext.Branches[0].ID
	if _, err := Reconstruct(p, ext); err == nil {
		t.Fatal("corrupt stream reconstructed without error")
	}
}
