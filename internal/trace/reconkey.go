package trace

import (
	"encoding/binary"

	"repro/internal/codec"
	"repro/internal/prog"
)

// A reconstruction key is the exact byte string path reconstruction is a
// function of: everything exectree.Reconstruct reads from an external-only
// trace — the recorded outcome, the step count (replay fuel), the recorded
// branch stream and the syscall stream — and nothing else. Two traces with
// equal keys reconstruct to the same path or fail the same way, so the key
// can index remembered reconstructions without a hash standing in for it.
//
// Layout: outcome (raw byte), steps (uvarint), branch count (uvarint), the
// branch slab, syscall count (uvarint), the syscall slab — the slabs in the
// batch codec's event encoding, which for a BatchView means copied verbatim
// out of the frame.

// AppendReconstructionKey appends trace i's reconstruction key to dst.
func (v *BatchView) AppendReconstructionKey(dst []byte, i int) []byte {
	dst = append(dst, v.outcome[i])
	dst = binary.AppendUvarint(dst, uint64(v.sc.steps[i]))
	dst = binary.AppendUvarint(dst, uint64(v.sc.counts[secBranches][i]))
	dst = append(dst, v.slab(secBranches, i)...)
	dst = binary.AppendUvarint(dst, uint64(v.sc.counts[secSyscalls][i]))
	return append(dst, v.slab(secSyscalls, i)...)
}

// ReconstructionInput is what a reconstruction key encodes: the values an
// oracle replay of an external-only trace reads.
type ReconstructionInput struct {
	Outcome prog.Outcome
	// Steps is the recorded step count the replay's fuel derives from.
	Steps int64
	// Branches is the recorded (input-dependent) branch stream.
	Branches []BranchEvent
	// Returns are the recorded syscall return values, in call order.
	Returns []int64
}

// ParseReconstructionKey decodes a reconstruction key into in, reusing the
// capacity of in.Branches and in.Returns.
func ParseReconstructionKey(key []byte, in *ReconstructionInput) error {
	d := codec.NewDecoder(key, ErrCodec, "reconstruction key")
	in.Outcome = prog.Outcome(d.Byte())
	in.Steps = int64(d.Uvarint())
	in.Branches, in.Returns = in.Branches[:0], in.Returns[:0]
	nb := d.Count(1)
	for k := 0; k < nb; k++ {
		raw := d.Uvarint()
		in.Branches = append(in.Branches, BranchEvent{ID: int32(raw >> 1), Taken: raw&1 == 1})
	}
	ns := d.Count(3)
	for k := 0; k < ns; k++ {
		d.Uvarint() // TID
		d.Varint()  // Sysno
		in.Returns = append(in.Returns, d.Varint())
	}
	return d.Finish()
}
