package trace

import (
	"encoding/binary"
	"fmt"

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
	d := &decoder{buf: key}
	in.Outcome = prog.Outcome(d.byte())
	in.Steps = int64(d.uvarint())
	in.Branches, in.Returns = in.Branches[:0], in.Returns[:0]
	nb := int(d.uvarint())
	if err := d.checkCount(nb, 1); err != nil {
		return err
	}
	for k := 0; k < nb; k++ {
		raw := d.uvarint()
		in.Branches = append(in.Branches, BranchEvent{ID: int32(raw >> 1), Taken: raw&1 == 1})
	}
	ns := int(d.uvarint())
	if err := d.checkCount(ns, 3); err != nil {
		return err
	}
	for k := 0; k < ns; k++ {
		d.uvarint() // TID
		d.varint()  // Sysno
		in.Returns = append(in.Returns, d.varint())
	}
	if d.err == nil && d.pos != len(key) {
		d.err = fmt.Errorf("%w: %d trailing reconstruction-key bytes", ErrCodec, len(key)-d.pos)
	}
	return d.err
}
