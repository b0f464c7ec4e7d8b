package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/prog"
)

// codecVersion is bumped on any incompatible change to the encoding.
const codecVersion = 2

// ErrCodec is returned (wrapped) for any malformed encoded trace.
var ErrCodec = errors.New("trace: malformed encoding")

// Encode serializes the trace into a compact varint-based binary form: the
// per-trace codec. The wire carries columnar batches (AppendBatch), not this
// form; it is what checkpoints keep failure samples and coordinated fragments
// in, what legacy journal.OpBatch records hold, and what the experiments'
// byte columns count. It is deliberately independent of encoding/json so
// that capture-overhead measurements reflect a realistic telemetry codec.
func Encode(t *Trace) []byte {
	// Rough capacity guess: header + 1-3 bytes per event.
	buf := make([]byte, 0, 64+3*len(t.Branches)+8*len(t.Syscalls)+6*len(t.Locks))
	buf = append(buf, codecVersion)
	buf = appendString(buf, t.ProgramID)
	buf = appendString(buf, t.PodID)
	buf = binary.AppendUvarint(buf, t.Seq)
	buf = append(buf, byte(t.Mode))
	buf = binary.AppendUvarint(buf, uint64(t.SampleRate))
	buf = binary.AppendUvarint(buf, uint64(t.SamplePhase))
	buf = binary.AppendUvarint(buf, uint64(t.SampleK))

	buf = binary.AppendUvarint(buf, uint64(len(t.Branches)))
	buf = appendBranchEvents(buf, t.Branches)

	buf = binary.AppendUvarint(buf, uint64(len(t.Syscalls)))
	buf = appendSyscallEvents(buf, t.Syscalls)

	buf = binary.AppendUvarint(buf, uint64(len(t.Locks)))
	for _, l := range t.Locks {
		buf = binary.AppendUvarint(buf, uint64(l.TID))
		buf = binary.AppendUvarint(buf, uint64(l.LockID))
		buf = binary.AppendUvarint(buf, uint64(l.PC))
		if l.Acquire {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}

	buf = appendString(buf, t.ScheduleHash)
	buf = append(buf, byte(t.Outcome))
	buf = binary.AppendVarint(buf, int64(t.FaultPC))
	buf = binary.AppendVarint(buf, t.AssertID)
	buf = binary.AppendUvarint(buf, uint64(t.Steps))

	buf = binary.AppendUvarint(buf, uint64(len(t.Deadlock)))
	for _, w := range t.Deadlock {
		buf = binary.AppendUvarint(buf, uint64(w.TID))
		buf = binary.AppendUvarint(buf, uint64(w.PC))
		buf = binary.AppendUvarint(buf, uint64(w.Wants))
	}

	buf = appendString(buf, t.InputDigest)
	buf = append(buf, byte(t.Privacy))
	buf = binary.AppendUvarint(buf, uint64(len(t.Input)))
	for _, v := range t.Input {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.InputBuckets)))
	for _, v := range t.InputBuckets {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// Decode parses a trace encoded by Encode.
func Decode(data []byte) (*Trace, error) {
	d := &decoder{buf: data}
	if v := d.byte(); v != codecVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCodec, v)
	}
	t := &Trace{}
	t.ProgramID = d.string()
	t.PodID = d.string()
	t.Seq = d.uvarint()
	t.Mode = CaptureMode(d.byte())
	t.SampleRate = uint32(d.uvarint())
	t.SamplePhase = uint32(d.uvarint())
	t.SampleK = uint32(d.uvarint())

	// Zero-length sections decode to nil (not empty non-nil slices), so a
	// decoded trace is DeepEqual to a Clone of the original — the property
	// hive persistence round-trip tests rely on.
	nb := int(d.uvarint())
	if err := d.checkCount(nb, 1); err != nil {
		return nil, err
	}
	if nb > 0 {
		t.Branches = make([]BranchEvent, nb)
		for i := 0; i < nb; i++ {
			v := d.uvarint()
			t.Branches[i] = BranchEvent{ID: int32(v >> 1), Taken: v&1 == 1}
		}
	}

	ns := int(d.uvarint())
	if err := d.checkCount(ns, 3); err != nil {
		return nil, err
	}
	if ns > 0 {
		t.Syscalls = make([]SyscallEvent, ns)
		for i := 0; i < ns; i++ {
			t.Syscalls[i] = SyscallEvent{
				TID:   int32(d.uvarint()),
				Sysno: d.varint(),
				Ret:   d.varint(),
			}
		}
	}

	nl := int(d.uvarint())
	if err := d.checkCount(nl, 4); err != nil {
		return nil, err
	}
	if nl > 0 {
		t.Locks = make([]LockEvent, nl)
		for i := 0; i < nl; i++ {
			t.Locks[i] = LockEvent{
				TID:     int32(d.uvarint()),
				LockID:  int32(d.uvarint()),
				PC:      int32(d.uvarint()),
				Acquire: d.byte() == 1,
			}
		}
	}

	t.ScheduleHash = d.string()
	t.Outcome = prog.Outcome(d.byte())
	t.FaultPC = int32(d.varint())
	t.AssertID = d.varint()
	t.Steps = int64(d.uvarint())

	nd := int(d.uvarint())
	if err := d.checkCount(nd, 3); err != nil {
		return nil, err
	}
	if nd > 0 {
		t.Deadlock = make([]DeadlockWait, nd)
		for i := 0; i < nd; i++ {
			t.Deadlock[i] = DeadlockWait{
				TID:   int32(d.uvarint()),
				PC:    int32(d.uvarint()),
				Wants: int32(d.uvarint()),
			}
		}
	}

	t.InputDigest = d.string()
	t.Privacy = PrivacyLevel(d.byte())
	ni := int(d.uvarint())
	if err := d.checkCount(ni, 1); err != nil {
		return nil, err
	}
	if ni > 0 {
		t.Input = make([]int64, ni)
		for i := range t.Input {
			t.Input[i] = d.varint()
		}
	}
	nib := int(d.uvarint())
	if err := d.checkCount(nib, 1); err != nil {
		return nil, err
	}
	if nib > 0 {
		t.InputBuckets = make([]int64, nib)
		for i := range t.InputBuckets {
			t.InputBuckets[i] = d.varint()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return t, nil
}

// appendBranchEvents appends the event encoding of a branch stream — one
// uvarint per event, ID<<1|taken — shared by the per-trace codec, the batch
// codec's branch slab, and reconstruction keys.
func appendBranchEvents(buf []byte, branches []BranchEvent) []byte {
	for _, b := range branches {
		v := uint64(b.ID) << 1
		if b.Taken {
			v |= 1
		}
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// appendSyscallEvents appends the event encoding of a syscall stream.
func appendSyscallEvents(buf []byte, syscalls []SyscallEvent) []byte {
	for _, s := range syscalls {
		buf = binary.AppendUvarint(buf, uint64(s.TID))
		buf = binary.AppendVarint(buf, s.Sysno)
		buf = binary.AppendVarint(buf, s.Ret)
	}
	return buf
}

// appendString writes a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder is a cursor over an encoded trace that latches the first error.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated at offset %d", ErrCodec, d.pos)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// Most values — lengths, counts, branch IDs, thread IDs — fit in one
	// byte.
	if d.pos < len(d.buf) && d.buf[d.pos] < 0x80 {
		v := uint64(d.buf[d.pos])
		d.pos++
		return v
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) string() string {
	n := int(d.uvarint())
	if d.err != nil {
		return ""
	}
	if n < 0 || d.pos+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s
}

// checkCount guards slice allocations against hostile counts: the remaining
// bytes must be able to hold count items of at least minBytes each.
func (d *decoder) checkCount(count, minBytes int) error {
	if d.err != nil {
		return d.err
	}
	// Divide instead of multiplying: a hostile count near the int ceiling
	// must not overflow the plausibility product.
	if count < 0 || count > (len(d.buf)-d.pos)/minBytes {
		d.err = fmt.Errorf("%w: implausible count %d at offset %d", ErrCodec, count, d.pos)
		return d.err
	}
	return nil
}
