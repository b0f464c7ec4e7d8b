package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// keyOf is tr's reconstruction key, read out of a frame holding tr alone.
func keyOf(t *testing.T, tr *Trace) []byte {
	t.Helper()
	enc, err := EncodeBatch(tr.ProgramID, []*Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	return v.AppendReconstructionKey(nil, 0)
}

// TestReconstructionKeyRoundTrip pins the three properties the hive's
// reconstruction memo leans on: a trace's key is the same wherever in
// whichever frame it sits; the key parses back to exactly the replay
// inputs; and the key is a function of those inputs alone (fields
// reconstruction does not read leave it unchanged, fields it reads change
// it).
func TestReconstructionKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traces := make([]*Trace, 64)
	for i := range traces {
		traces[i] = randomTrace(rng, "prog-key")
	}
	enc, err := EncodeBatch("prog-key", traces)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	for i, tr := range traces {
		key := v.AppendReconstructionKey(nil, i)
		if !bytes.Equal(keyOf(t, tr), key) {
			t.Fatalf("trace %d: key differs between a batch and a frame of its own", i)
		}
		var in ReconstructionInput
		if err := ParseReconstructionKey(key, &in); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		// Parsed streams are empty non-nil slices where the trace holds nil.
		want := ReconstructionInput{Outcome: tr.Outcome, Steps: tr.Steps, Branches: []BranchEvent{}, Returns: []int64{}}
		want.Branches = append(want.Branches, tr.Branches...)
		for _, s := range tr.Syscalls {
			want.Returns = append(want.Returns, s.Ret)
		}
		in.Branches, in.Returns = append([]BranchEvent{}, in.Branches...), append([]int64{}, in.Returns...)
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("trace %d: key parsed to %+v, trace holds %+v", i, in, want)
		}

		same := tr.Clone()
		same.PodID, same.Seq, same.InputDigest, same.FaultPC = "elsewhere", tr.Seq+9, "other", tr.FaultPC+1
		if !bytes.Equal(keyOf(t, same), key) {
			t.Fatalf("trace %d: key moved with a field reconstruction never reads", i)
		}
		other := tr.Clone()
		other.Steps++
		if bytes.Equal(keyOf(t, other), key) {
			t.Fatalf("trace %d: key blind to the step count", i)
		}
		other = tr.Clone()
		other.Branches = append(other.Branches, BranchEvent{ID: 1, Taken: true})
		if bytes.Equal(keyOf(t, other), key) {
			t.Fatalf("trace %d: key blind to the branch stream", i)
		}

		for _, bad := range [][]byte{key[:len(key)-1], append(append([]byte(nil), key...), 0)} {
			if err := ParseReconstructionKey(bad, &in); !errors.Is(err, ErrCodec) {
				t.Fatalf("trace %d: malformed key parsed: err = %v", i, err)
			}
		}
	}
}
