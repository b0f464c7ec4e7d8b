package guidance

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/codec/codectest"
	"repro/internal/prog"
)

// decodeCase reads one test case that fills data.
func decodeCase(data []byte) (*TestCase, error) {
	d := codec.NewDecoder(data, ErrCodec, "test case")
	tc := &TestCase{}
	if err := Read(&d, tc); err != nil {
		return nil, err
	}
	return tc, d.Finish()
}

// randomCase draws a test case with every field set from rng. Input and
// Faults are nil when empty, as Read returns them; Schedule is nil, empty or
// not, each a third of the time.
func randomCase(rng *rand.Rand) *TestCase {
	tc := &TestCase{ProgramID: "prog-x", Reason: "cover #3+ after 2-deep prefix"}
	for i := rng.Intn(4); i > 0; i-- {
		tc.Input = append(tc.Input, rng.Int63()-1<<62)
	}
	switch rng.Intn(3) {
	case 1:
		tc.Schedule = []int{}
	case 2:
		for i := 1 + rng.Intn(4); i > 0; i-- {
			tc.Schedule = append(tc.Schedule, rng.Intn(8))
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		tc.Faults = append(tc.Faults, prog.FaultSpec{Sysno: rng.Int63n(64), CallIndex: rng.Intn(10) - 1, Return: rng.Int63() - 1<<62})
	}
	return tc
}

// TestCodecRoundTrip: every test case decodes from its encoding to itself —
// a nil schedule stays nil and an empty one empty — and a cut encoding is
// refused.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tc := randomCase(rng)
		data := Append(nil, tc)
		got, err := decodeCase(data)
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		if !reflect.DeepEqual(got, tc) || (got.Schedule == nil) != (tc.Schedule == nil) {
			t.Fatalf("decoded %+v, want %+v", got, tc)
		}
		if _, err := decodeCase(data[:rng.Intn(len(data))]); !errors.Is(err, ErrCodec) {
			t.Fatalf("a cut case: err = %v, want ErrCodec", err)
		}
	}
}

// FuzzTestCaseDecode: a hostile count or length in any list or field of a
// test case is refused without sizing anything past the input, and whatever
// decodes survives a round trip through its encoding.
func FuzzTestCaseDecode(f *testing.F) {
	f.Add(Append(nil, randomCase(rand.New(rand.NewSource(2)))))
	decode := func(data []byte) error { _, err := decodeCase(data); return err }
	codectest.Fuzz(f, decode,
		nil,                // the program ID's length
		[]byte{0},          // the input count
		[]byte{0, 0},       // the schedule count
		[]byte{0, 0, 0},    // the fault count
		[]byte{0, 0, 0, 0}, // the reason's length
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *TestCase
		if codectest.Decode(t, data, func(b []byte) (err error) { got, err = decodeCase(b); return err }) != nil {
			return
		}
		again, err := decodeCase(Append(nil, got))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%x decoded to %+v, which round-trips to %+v (%v)", data, got, again, err)
		}
	})
}
