package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestReconstructionKeyRoundTrip pins the three properties the hive's
// reconstruction memo leans on: a trace and a view over its batch encoding
// build the same key; the key parses back to exactly the replay inputs; and
// the key is a function of those inputs alone (fields reconstruction does
// not read leave it unchanged, fields it reads change it).
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
		key := tr.AppendReconstructionKey(nil)
		if got := v.AppendReconstructionKey(nil, i); !bytes.Equal(got, key) {
			t.Fatalf("trace %d: view key differs from trace key", i)
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
		if !bytes.Equal(same.AppendReconstructionKey(nil), key) {
			t.Fatalf("trace %d: key moved with a field reconstruction never reads", i)
		}
		other := tr.Clone()
		other.Steps++
		if bytes.Equal(other.AppendReconstructionKey(nil), key) {
			t.Fatalf("trace %d: key blind to the step count", i)
		}
		other = tr.Clone()
		other.Branches = append(other.Branches, BranchEvent{ID: 1, Taken: true})
		if bytes.Equal(other.AppendReconstructionKey(nil), key) {
			t.Fatalf("trace %d: key blind to the branch stream", i)
		}

		for _, bad := range [][]byte{key[:len(key)-1], append(append([]byte(nil), key...), 0)} {
			if err := ParseReconstructionKey(bad, &in); !errors.Is(err, ErrCodec) {
				t.Fatalf("trace %d: malformed key parsed: err = %v", i, err)
			}
		}
	}
}
