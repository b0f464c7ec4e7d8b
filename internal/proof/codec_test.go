package proof

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/prog"
	"repro/internal/trace"
)

// randomPath draws a branch path of zero to five events over the whole
// int32 range of IDs.
func randomPath(rng *rand.Rand) []trace.BranchEvent {
	n := rng.Intn(6)
	if n == 0 {
		return nil
	}
	path := make([]trace.BranchEvent, n)
	for i := range path {
		path[i] = trace.BranchEvent{ID: int32(rng.Uint32()), Taken: rng.Intn(2) == 0}
	}
	return path
}

// randomProof draws a proof with every field set from rng; empty lists are
// nil, as Decode returns them.
func randomProof(rng *rand.Rand) *Proof {
	p := &Proof{
		ProgramID:     "prog-" + string(rune('a'+rng.Intn(26))),
		Property:      Property(rng.Intn(5)),
		Complete:      rng.Intn(2) == 0,
		Holds:         rng.Intn(2) == 0,
		PathsCovered:  rng.Int63() - 1<<62,
		NodesExplored: rng.Int63n(1 << 40),
		Certificates:  rng.Intn(1 << 20),
		NewEvidence:   rng.Intn(1 << 20),
		Epoch:         rng.Intn(1 << 10),
	}
	for i := rng.Intn(3); i > 0; i-- {
		ce := CounterExample{Path: randomPath(rng), Outcome: prog.Outcome(rng.Intn(8))}
		for j := rng.Intn(3); j > 0; j-- {
			ce.Input = append(ce.Input, rng.Int63()-1<<62)
		}
		p.CounterExamples = append(p.CounterExamples, ce)
	}
	for i := rng.Intn(3); i > 0; i-- {
		p.Evidence = append(p.Evidence, Evidence{Path: randomPath(rng), Outcome: prog.Outcome(rng.Intn(8))})
	}
	return p
}

// TestCodecRoundTrip: every proof decodes from its encoding to itself, and a
// cut or extended encoding is refused.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := randomProof(rng)
		data := Append(nil, p)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("proof %+v: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("decoded %+v, want %+v", got, p)
		}
		if _, err := Decode(data[:rng.Intn(len(data))]); !errors.Is(err, ErrCodec) {
			t.Fatalf("a cut proof: err = %v, want ErrCodec", err)
		}
		if _, err := Decode(append(data, 0)); !errors.Is(err, ErrCodec) {
			t.Fatalf("a proof with a trailing byte: err = %v, want ErrCodec", err)
		}
	}
}

// FuzzProofDecode: a hostile count or length in any list or field of a proof
// is refused without sizing anything past the input, and whatever decodes
// survives a round trip through its encoding.
func FuzzProofDecode(f *testing.F) {
	f.Add(Append(nil, randomProof(rand.New(rand.NewSource(2)))))
	decode := func(data []byte) error { _, err := Decode(data); return err }
	head := []byte{0, 1, 3, 0, 0, 0, 0, 0} // program "", property, flags, five varints
	codectest.Fuzz(f, decode,
		nil,                                     // the program ID's length
		head,                                    // the counter-example count
		append(append([]byte{}, head...), 1),    // the first counter-example's path length
		append(append([]byte{}, head...), 0),    // the evidence count
		append(append([]byte{}, head...), 0, 1), // the first evidence path's length
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Proof
		if codectest.Decode(t, data, func(b []byte) (err error) { got, err = Decode(b); return err }) != nil {
			return
		}
		again, err := Decode(Append(nil, got))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%x decoded to %+v, which round-trips to %+v (%v)", data, got, again, err)
		}
	})
}
