package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/codec"
	"repro/internal/prog"
)

// batchVersion is bumped on any wire-incompatible change to the columnar
// batch encoding.
const batchVersion = 1

// ErrCodec is returned (wrapped) for any malformed encoded batch.
var ErrCodec = errors.New("trace: malformed encoding")

// The columnar batch codec is the fleet-scale answer to per-trace encode
// cost: a whole pod batch is serialized column-wise — the program ID once,
// a pod-ID dictionary, delta-varint sequence numbers, raw byte columns for
// the per-trace enums, and one concatenated slab per variable-length
// section (branches, syscalls, locks, deadlock waits, strings, inputs)
// with per-trace counts and byte lengths. The layout buys three things:
//
//   - Encoding amortizes the per-trace framing across the batch (shared
//     header, one length column instead of N interleaved prefixes).
//   - Decoding is *indexing* plus one branch column: BatchView records
//     column offsets into the original buffer and serves field reads
//     directly out of it, and the validation pass that must parse every
//     branch event anyway keeps what it parsed, so the hive merges every
//     trace's path straight out of the view without materializing Trace
//     structs or parsing a branch twice.
//   - The validated frame bytes are a self-contained replayable record:
//     the hive journals them verbatim (journal.OpBatchColumnar), so one
//     serialization per trace survives pod → wire → hive → journal.
//
// Layout (all integers varint unless noted):
//
//	byte    batchVersion
//	string  programID
//	uvarint podCount, then podCount strings (the pod-ID dictionary)
//	uvarint n (trace count)
//	scalar columns, each n entries:
//	  pod index (uvarint), mode (raw byte), outcome (raw byte),
//	  privacy (raw byte), sampleRate/samplePhase/sampleK (uvarint),
//	  seq (first absolute, then zigzag deltas), faultPC/assertID
//	  (varint), steps (uvarint)
//	variable sections, each: counts column (events per trace, omitted for
//	string sections), lens column (slab bytes per trace), slab:
//	  branches, syscalls, locks, deadlock, scheduleHash, inputDigest,
//	  input, inputBuckets
//
// It is the one trace encoding: the wire, the journal's batch records, the
// archive and the checkpoints' failure samples and coordinated families all
// carry it.

// batchSection indexes the variable-length sections in layout order.
const (
	secBranches = iota
	secSyscalls
	secLocks
	secDeadlock
	secSchedHash
	secInputDigest
	secInput
	secInputBuckets
	numSections
)

// sectionHasCounts reports whether the section carries an event-count
// column distinct from its byte-length column (string sections do not).
func sectionHasCounts(sec int) bool {
	return sec != secSchedHash && sec != secInputDigest
}

// --- encoder ---

// batchEncoder is the pooled scratch for AppendBatch: per-section length
// columns and the slab staging buffer survive across batches.
type batchEncoder struct {
	counts [numSections][]uint32
	lens   [numSections][]uint32
	slabs  [numSections][]byte
	pods   []string
	podIdx []uint32
}

var batchEncoderPool = sync.Pool{New: func() any { return &batchEncoder{} }}

// EncodeBatch serializes a whole batch column-wise. Every trace must carry
// programID (the header stores it once); an empty batch is valid.
func EncodeBatch(programID string, traces []*Trace) ([]byte, error) {
	return AppendBatch(nil, programID, traces)
}

// AppendBatch appends the columnar encoding of traces to dst and returns
// the extended slice. Every trace must describe programID — the batch
// header is the frame's single source of truth for it. Scratch state is
// pooled: steady-state encoding allocates only when dst needs to grow.
func AppendBatch(dst []byte, programID string, traces []*Trace) ([]byte, error) {
	for _, tr := range traces {
		if tr.ProgramID != programID {
			return dst, fmt.Errorf("%w: trace for program %q in batch for %q", ErrCodec, tr.ProgramID, programID)
		}
	}
	e := batchEncoderPool.Get().(*batchEncoder)
	defer batchEncoderPool.Put(e)
	e.pods = e.pods[:0]
	e.podIdx = e.podIdx[:0]
	for s := 0; s < numSections; s++ {
		e.counts[s] = e.counts[s][:0]
		e.lens[s] = e.lens[s][:0]
		e.slabs[s] = e.slabs[s][:0]
	}

	// Pod dictionary: linear scan — batches come from one pod (a drain) or
	// a handful (hive-side re-encode), never enough to want a map.
	for _, tr := range traces {
		idx := -1
		for i, p := range e.pods {
			if p == tr.PodID {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(e.pods)
			e.pods = append(e.pods, tr.PodID)
		}
		e.podIdx = append(e.podIdx, uint32(idx))
	}

	// Stage the variable sections: concatenate each trace's events into the
	// section slab, recording per-trace event counts and byte lengths.
	for _, tr := range traces {
		stageSection(e, secBranches, len(tr.Branches), func(buf []byte) []byte {
			return appendBranchEvents(buf, tr.Branches)
		})
		stageSection(e, secSyscalls, len(tr.Syscalls), func(buf []byte) []byte {
			return appendSyscallEvents(buf, tr.Syscalls)
		})
		stageSection(e, secLocks, len(tr.Locks), func(buf []byte) []byte {
			for _, l := range tr.Locks {
				buf = binary.AppendUvarint(buf, uint64(l.TID))
				buf = binary.AppendUvarint(buf, uint64(l.LockID))
				buf = binary.AppendUvarint(buf, uint64(l.PC))
				if l.Acquire {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
			return buf
		})
		stageSection(e, secDeadlock, len(tr.Deadlock), func(buf []byte) []byte {
			for _, w := range tr.Deadlock {
				buf = binary.AppendUvarint(buf, uint64(w.TID))
				buf = binary.AppendUvarint(buf, uint64(w.PC))
				buf = binary.AppendUvarint(buf, uint64(w.Wants))
			}
			return buf
		})
		stageSection(e, secSchedHash, 0, func(buf []byte) []byte {
			return append(buf, tr.ScheduleHash...)
		})
		stageSection(e, secInputDigest, 0, func(buf []byte) []byte {
			return append(buf, tr.InputDigest...)
		})
		stageSection(e, secInput, len(tr.Input), func(buf []byte) []byte {
			for _, v := range tr.Input {
				buf = binary.AppendVarint(buf, v)
			}
			return buf
		})
		stageSection(e, secInputBuckets, len(tr.InputBuckets), func(buf []byte) []byte {
			for _, v := range tr.InputBuckets {
				buf = binary.AppendVarint(buf, v)
			}
			return buf
		})
	}

	// Header.
	dst = append(dst, batchVersion)
	dst = codec.AppendField(dst, programID)
	dst = binary.AppendUvarint(dst, uint64(len(e.pods)))
	for _, p := range e.pods {
		dst = codec.AppendField(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(traces)))

	// Scalar columns.
	for _, idx := range e.podIdx {
		dst = binary.AppendUvarint(dst, uint64(idx))
	}
	for _, tr := range traces {
		dst = append(dst, byte(tr.Mode))
	}
	for _, tr := range traces {
		dst = append(dst, byte(tr.Outcome))
	}
	for _, tr := range traces {
		dst = append(dst, byte(tr.Privacy))
	}
	for _, tr := range traces {
		dst = binary.AppendUvarint(dst, uint64(tr.SampleRate))
	}
	for _, tr := range traces {
		dst = binary.AppendUvarint(dst, uint64(tr.SamplePhase))
	}
	for _, tr := range traces {
		dst = binary.AppendUvarint(dst, uint64(tr.SampleK))
	}
	var prev uint64
	for i, tr := range traces {
		if i == 0 {
			dst = binary.AppendUvarint(dst, tr.Seq)
		} else {
			dst = binary.AppendVarint(dst, int64(tr.Seq-prev))
		}
		prev = tr.Seq
	}
	for _, tr := range traces {
		dst = binary.AppendVarint(dst, int64(tr.FaultPC))
	}
	for _, tr := range traces {
		dst = binary.AppendVarint(dst, tr.AssertID)
	}
	for _, tr := range traces {
		dst = binary.AppendUvarint(dst, uint64(tr.Steps))
	}

	// Variable sections.
	for s := 0; s < numSections; s++ {
		if sectionHasCounts(s) {
			for _, c := range e.counts[s] {
				dst = binary.AppendUvarint(dst, uint64(c))
			}
		}
		for _, l := range e.lens[s] {
			dst = binary.AppendUvarint(dst, uint64(l))
		}
		dst = append(dst, e.slabs[s]...)
	}
	return dst, nil
}

// stageSection appends one trace's events to a section slab via write,
// recording the event count and slab byte length.
func stageSection(e *batchEncoder, sec, count int, write func([]byte) []byte) {
	before := len(e.slabs[sec])
	e.slabs[sec] = write(e.slabs[sec])
	if sectionHasCounts(sec) {
		e.counts[sec] = append(e.counts[sec], uint32(count))
	}
	e.lens[sec] = append(e.lens[sec], uint32(len(e.slabs[sec])-before))
}

// --- zero-copy view ---

// viewScratch is the pooled per-batch index a BatchView builds over the
// encoded buffer: decoded scalar columns plus per-trace offsets into the
// variable-section slabs. Slices are reused across batches.
type viewScratch struct {
	podIdx      []uint32
	sampleRate  []uint32
	samplePhase []uint32
	sampleK     []uint32
	seq         []uint64
	faultPC     []int32
	assertID    []int64
	steps       []int64

	counts [numSections][]uint32
	// offs[s] holds n+1 absolute buffer offsets: trace i's slab bytes for
	// section s are buf[offs[s][i]:offs[s][i+1]].
	offs [numSections][]uint32

	// branches is the batch's decoded branch section, every trace's events
	// back to back: trace i's are branches[branchAt[i]:branchAt[i+1]].
	branches []BranchEvent
	branchAt []uint32
}

// maxRetainedBranches bounds the branch column a pooled scratch keeps across
// batches: a column past it (8 MiB) is dropped at Release, so one hostile or
// oversized frame does not pin its column in the pool. A full-capture frame
// of 256 traces at about 80 encoded bytes a trace decodes to under 200 KiB.
const maxRetainedBranches = 1 << 20

var viewScratchPool = sync.Pool{New: func() any { return &viewScratch{} }}

// BatchView is a read-only view over a columnar-encoded batch. All field
// accessors read directly out of the encoded buffer (or the decoded scalar
// and branch columns) without materializing Trace values; DecodeBatch
// validates the whole buffer up front, so accessors cannot fail. A view
// holds pooled index state — call Release when done with it; the view (and
// any sub-slices of Bytes or Branches) must not be used after Release, and
// the underlying buffer must not be mutated while the view is live.
type BatchView struct {
	buf       []byte
	programID string
	pods      []string
	n         int

	mode    []byte // raw columns: sub-slices of buf
	outcome []byte
	privacy []byte

	sc *viewScratch
}

// DecodeBatch indexes and validates a columnar batch. The returned view
// borrows data: it keeps buf and serves reads from it.
func DecodeBatch(buf []byte) (*BatchView, error) {
	v, err := indexBatch(buf)
	if err != nil {
		return nil, err
	}
	if err := v.validateSlabs(); err != nil {
		v.Release()
		return nil, err
	}
	return v, nil
}

// indexBatch decodes a batch's header and scalar columns and locates every
// trace's slab bytes in each section, checking that the sections exactly
// fill the buffer. The slabs' contents are validateSlabs' to check.
func indexBatch(buf []byte) (*BatchView, error) {
	if len(buf) > 1<<30 {
		// The view indexes the buffer with 32-bit offsets; real batches are
		// wire frames (≤16MB) or journal records of the same payloads.
		return nil, fmt.Errorf("%w: batch of %d bytes exceeds view limit", ErrCodec, len(buf))
	}
	d := codec.NewDecoder(buf, ErrCodec, "batch")
	if v := d.Byte(); v != batchVersion {
		return nil, fmt.Errorf("%w: batch version %d", ErrCodec, v)
	}
	v := &BatchView{buf: buf}
	v.programID = d.String()
	npods := d.Count(1)
	if npods > 0 {
		v.pods = make([]string, npods)
		for i := range v.pods {
			v.pods[i] = d.String()
		}
	}
	n := d.Count(8)
	if err := d.Err(); err != nil {
		return nil, err
	}
	v.n = n

	sc := viewScratchPool.Get().(*viewScratch)
	v.sc = sc
	fail := func(err error) (*BatchView, error) {
		v.Release()
		return nil, err
	}

	// Each column is one loop over a local position, the one-byte case
	// first; a column that runs off the buffer is refused once, at its end.
	pos := d.Pos()
	var err error
	if npods == 0 && n > 0 {
		return fail(fmt.Errorf("%w: %d traces and no pod", ErrCodec, n))
	}
	sc.podIdx = growU32(sc.podIdx, n)
	if pos, err = uvarintColumn(buf, pos, sc.podIdx, "pod index", uint64(npods)-1); err != nil {
		return fail(err)
	}
	if pos+3*n > len(buf) {
		return fail(errCutColumn)
	}
	v.mode, v.outcome, v.privacy = buf[pos:pos+n], buf[pos+n:pos+2*n], buf[pos+2*n:pos+3*n]
	pos += 3 * n
	for _, col := range [...]*[]uint32{&sc.sampleRate, &sc.samplePhase, &sc.sampleK} {
		*col = growU32(*col, n)
		if pos, err = uvarintColumn(buf, pos, *col, "", math.MaxUint64); err != nil {
			return fail(err)
		}
	}
	sc.seq = growU64(sc.seq, n)
	if pos, err = seqColumn(buf, pos, sc.seq); err != nil {
		return fail(err)
	}
	sc.faultPC = growI32(sc.faultPC, n)
	if pos, err = varintColumn(buf, pos, sc.faultPC); err != nil {
		return fail(err)
	}
	sc.assertID = growI64(sc.assertID, n)
	if pos, err = varintColumn(buf, pos, sc.assertID); err != nil {
		return fail(err)
	}
	sc.steps = growI64(sc.steps, n)
	if pos, err = uvarintColumn(buf, pos, sc.steps, "", math.MaxUint64); err != nil {
		return fail(err)
	}

	// A count or a length past the whole buffer is refused before anything
	// sums it: a length near 2^64 would wrap total past the bounds check
	// below and leave offs non-monotonic (out-of-range slab slices).
	limit := uint64(len(buf))
	for s := 0; s < numSections; s++ {
		if sectionHasCounts(s) {
			sc.counts[s] = growU32(sc.counts[s], n)
			if pos, err = uvarintColumn(buf, pos, sc.counts[s], "implausible section count", limit); err != nil {
				return fail(err)
			}
		}
		offs := growU32(sc.offs[s], n+1)
		if pos, err = uvarintColumn(buf, pos, offs[1:], "implausible section length", limit); err != nil {
			return fail(err)
		}
		// Each length is at most 2^30 and there are fewer than 2^30 of
		// them, so the sum cannot wrap.
		total := uint64(0)
		for i := 1; i <= n; i++ {
			total += uint64(offs[i])
			offs[i] = uint32(total) // rebased below once the sum fits
		}
		if total > limit {
			return fail(fmt.Errorf("%w: section slab overruns buffer", ErrCodec))
		}
		if uint64(pos)+total > limit {
			return fail(fmt.Errorf("%w: truncated section slab", ErrCodec))
		}
		base := uint32(pos)
		offs[0] = base
		for i := 1; i <= n; i++ {
			offs[i] += base
		}
		pos += int(total)
		sc.offs[s] = offs
	}
	if pos != len(buf) {
		return fail(fmt.Errorf("%w: %d trailing batch bytes", ErrCodec, len(buf)-pos))
	}
	return v, nil
}

// errCutColumn is a scalar, count or length column that runs off the end
// of its batch.
var errCutColumn = fmt.Errorf("%w: truncated column", ErrCodec)

// uvarintColumn decodes len(col) uvarints from buf at pos into col, the
// one-byte case first, and returns the position after them. A value above
// limit is refused, named by what.
func uvarintColumn[T uint32 | int64](buf []byte, pos int, col []T, what string, limit uint64) (int, error) {
	for i := range col {
		var x uint64
		if pos < len(buf) && buf[pos] < 0x80 {
			x = uint64(buf[pos])
			pos++
		} else {
			var m int
			if x, m = binary.Uvarint(buf[pos:]); m <= 0 {
				return 0, errCutColumn
			}
			pos += m
		}
		if x > limit {
			return 0, fmt.Errorf("%w: %s %d over %d", ErrCodec, what, x, limit)
		}
		col[i] = T(x)
	}
	return pos, nil
}

// varintColumn decodes len(col) zigzag varints from buf at pos into col, the
// one-byte case first, and returns the position after them.
func varintColumn[T int32 | int64](buf []byte, pos int, col []T) (int, error) {
	for i := range col {
		if pos < len(buf) && buf[pos] < 0x80 {
			b := int64(buf[pos])
			col[i] = T(b>>1 ^ -(b & 1))
			pos++
			continue
		}
		x, m := binary.Varint(buf[pos:])
		if m <= 0 {
			return 0, errCutColumn
		}
		col[i] = T(x)
		pos += m
	}
	return pos, nil
}

// seqColumn decodes the sequence column as varintColumn does: the first
// number as a uvarint, each later one as a zigzag delta from the one before.
func seqColumn(buf []byte, pos int, col []uint64) (int, error) {
	var prev uint64
	for i := range col {
		var x uint64
		if i == 0 {
			var m int
			if x, m = binary.Uvarint(buf[pos:]); m <= 0 {
				return 0, errCutColumn
			}
			pos += m
		} else if pos < len(buf) && buf[pos] < 0x80 {
			b := int64(buf[pos])
			x = prev + uint64(b>>1^-(b&1))
			pos++
		} else {
			delta, m := binary.Varint(buf[pos:])
			if m <= 0 {
				return 0, errCutColumn
			}
			x = prev + uint64(delta)
			pos += m
		}
		col[i], prev = x, x
	}
	return pos, nil
}

// validateSlabs fully parses every per-trace event stream once: each stream
// must contain exactly its column's event count and consume exactly its
// recorded bytes. The branch streams are decoded into the view's branch
// column on the way, which is what Branches serves; every other section is
// only checked, and its accessors re-read the bytes.
func (v *BatchView) validateSlabs() error {
	if err := v.decodeBranches(); err != nil {
		return err
	}
	// Syscall: TID, sysno, ret. Lock: TID, lock ID, PC, then the acquire
	// byte. Deadlock wait: TID, PC, wanted lock. Inputs and input buckets:
	// one varint each.
	for _, c := range [...]struct{ sec, varints, raw int }{
		{secSyscalls, 3, 0},
		{secLocks, 3, 1},
		{secDeadlock, 3, 0},
		{secInput, 1, 0},
		{secInputBuckets, 1, 0},
	} {
		if err := v.checkEvents(c.sec, c.varints, c.raw); err != nil {
			return err
		}
	}
	return nil
}

// decodeBranches decodes every trace's branch stream into the branch column.
// Every event takes at least one byte, so the column is sized only once the
// batch's total event count is known to fit in its branch slab: a hostile
// count column cannot size it past the frame.
func (v *BatchView) decodeBranches() error {
	sc := v.sc
	counts := sc.counts[secBranches][:v.n]
	total := uint64(0)
	for _, c := range counts {
		total += uint64(c)
	}
	if slab := sc.offs[secBranches][v.n] - sc.offs[secBranches][0]; total > uint64(slab) {
		return fmt.Errorf("%w: %d branch events in a %d-byte branch slab", ErrCodec, total, slab)
	}
	if cap(sc.branches) < int(total) {
		sc.branches = make([]BranchEvent, total)
	}
	sc.branches = sc.branches[:total]
	sc.branchAt = growU32(sc.branchAt, v.n+1)
	at := uint32(0)
	for i, c := range counts {
		sc.branchAt[i] = at
		slab := v.slab(secBranches, i)
		col := sc.branches[at : at+c]
		// The uvarint loop inlined, with the one-byte case first: nearly
		// every event of a real program (ID < 64) is one byte.
		p := 0
		for k := range col {
			var raw uint64
			if p < len(slab) && slab[p] < 0x80 {
				raw = uint64(slab[p])
				p++
			} else {
				x, m := binary.Uvarint(slab[p:])
				if m <= 0 {
					return fmt.Errorf("%w: section %d trace %d: truncated branch %d", ErrCodec, secBranches, i, k)
				}
				raw = x
				p += m
			}
			col[k] = BranchEvent{ID: int32(raw >> 1), Taken: raw&1 == 1}
		}
		if p != len(slab) {
			return fmt.Errorf("%w: section %d trace %d: %d trailing bytes", ErrCodec, secBranches, i, len(slab)-p)
		}
		at += c
	}
	sc.branchAt[v.n] = at
	return nil
}

// checkEvents verifies that every trace's slab for one section holds
// exactly its column's event count and nothing after. An event of the
// section is a fixed number of varint fields (a uvarint and a zigzag varint
// span the same bytes, so one skip serves both) followed by a fixed number
// of raw bytes. The skip is inlined with the one-byte case first, as in
// decodeBranches: validation runs over every trace of every section and
// must not pay a call per event.
func (v *BatchView) checkEvents(sec, varints, raw int) error {
	offs, counts := v.sc.offs[sec], v.sc.counts[sec]
	for i := 0; i < v.n; i++ {
		slab := v.buf[offs[i]:offs[i+1]]
		count := int(counts[i])
		if count > len(slab)/(varints+raw) {
			return fmt.Errorf("%w: section %d trace %d: %d events in %d bytes", ErrCodec, sec, i, count, len(slab))
		}
		p := 0
		for k := 0; k < count; k++ {
			for f := 0; f < varints; f++ {
				if p < len(slab) && slab[p] < 0x80 {
					p++
					continue
				}
				_, m := binary.Uvarint(slab[p:])
				if m <= 0 {
					return fmt.Errorf("%w: section %d trace %d: truncated event %d", ErrCodec, sec, i, k)
				}
				p += m
			}
			if p += raw; p > len(slab) {
				return fmt.Errorf("%w: section %d trace %d: truncated event %d", ErrCodec, sec, i, k)
			}
		}
		if p != len(slab) {
			return fmt.Errorf("%w: section %d trace %d: %d trailing bytes", ErrCodec, sec, i, len(slab)-p)
		}
	}
	return nil
}

// Release returns the view's pooled index state. The view must not be used
// afterwards.
func (v *BatchView) Release() {
	if v.sc == nil {
		return
	}
	if cap(v.sc.branches) > maxRetainedBranches {
		v.sc.branches = nil
	}
	viewScratchPool.Put(v.sc)
	v.sc = nil
	v.buf = nil
}

// Bytes returns the encoded batch exactly as decoded — the bytes a durable
// hive journals verbatim.
func (v *BatchView) Bytes() []byte { return v.buf }

// Len returns the number of traces in the batch.
func (v *BatchView) Len() int { return v.n }

// ProgramID returns the batch-wide program ID.
func (v *BatchView) ProgramID() string { return v.programID }

// PodID returns trace i's pod ID (shared dictionary string — no per-call
// allocation).
func (v *BatchView) PodID(i int) string { return v.pods[v.sc.podIdx[i]] }

// Mode returns trace i's capture mode.
func (v *BatchView) Mode(i int) CaptureMode { return CaptureMode(v.mode[i]) }

// Outcome returns trace i's outcome label.
func (v *BatchView) Outcome(i int) prog.Outcome { return prog.Outcome(v.outcome[i]) }

// Privacy returns the privacy level trace i was shipped at.
func (v *BatchView) Privacy(i int) PrivacyLevel { return PrivacyLevel(v.privacy[i]) }

// Seq returns trace i's pod-local sequence number.
func (v *BatchView) Seq(i int) uint64 { return v.sc.seq[i] }

// Steps returns trace i's executed instruction count.
func (v *BatchView) Steps(i int) int64 { return v.sc.steps[i] }

// FaultPC returns trace i's fault location (-1 when not applicable).
func (v *BatchView) FaultPC(i int) int32 { return v.sc.faultPC[i] }

// AssertID returns trace i's assertion ID (-1 when not applicable).
func (v *BatchView) AssertID(i int) int64 { return v.sc.assertID[i] }

// NumBranches returns trace i's dynamic branch count.
func (v *BatchView) NumBranches(i int) int { return int(v.sc.counts[secBranches][i]) }

// NumInputs returns the length of trace i's raw input vector (non-zero only
// at PrivacyRaw).
func (v *BatchView) NumInputs(i int) int { return int(v.sc.counts[secInput][i]) }

// slab returns trace i's raw bytes for one section.
func (v *BatchView) slab(sec, i int) []byte {
	offs := v.sc.offs[sec]
	return v.buf[offs[i]:offs[i+1]]
}

// BranchBytes returns trace i's branch events as the frame encodes them, one
// uvarint ID<<1|taken an event: bytes that decode to exactly Branches(i). A
// borrow of the frame, like Bytes.
func (v *BatchView) BranchBytes(i int) []byte { return v.slab(secBranches, i) }

// Branches returns trace i's branch events — the path tree merging
// consumes. The slice is capped at its length and borrows the view's pooled
// branch column: it must not be modified, and it dies at Release.
func (v *BatchView) Branches(i int) []BranchEvent {
	lo, hi := v.sc.branchAt[i], v.sc.branchAt[i+1]
	return v.sc.branches[lo:hi:hi]
}

// AppendInput decodes trace i's raw input vector into dst (reusing its
// capacity) — the known-good harvesting path, which copies anyway.
func (v *BatchView) AppendInput(dst []int64, i int) []int64 {
	d := codec.NewDecoder(v.slab(secInput, i), ErrCodec, "batch")
	count := v.NumInputs(i)
	for k := 0; k < count; k++ {
		dst = append(dst, d.Varint())
	}
	return dst
}

// FailureSignature appends trace i's failure-signature key to dst — the
// same string Trace.FailureSignature builds, composed without materializing
// the trace. Empty (dst unchanged) for non-failure outcomes.
func (v *BatchView) FailureSignature(dst []byte, i int) []byte {
	out := v.Outcome(i)
	if !out.IsFailure() {
		return dst
	}
	dst = append(dst, out.String()...)
	dst = append(dst, '@')
	dst = strconv.AppendInt(dst, int64(v.FaultPC(i)), 10)
	dst = append(dst, '#')
	dst = strconv.AppendInt(dst, v.AssertID(i), 10)
	return dst
}

// Materialize builds a full Trace for index i — the escape hatch for the
// few consumers that must retain or mutate one (failure samples,
// coordinated-fragment buffering, privacy re-application). The result
// shares no memory with the view except the pod-ID dictionary string, and a
// section with no events is nil, so a trace built by appending events
// materializes DeepEqual to itself.
func (v *BatchView) Materialize(i int) *Trace {
	t := &Trace{
		ProgramID:   v.programID,
		PodID:       v.PodID(i),
		Seq:         v.Seq(i),
		Mode:        v.Mode(i),
		SampleRate:  uint32(v.sc.sampleRate[i]),
		SamplePhase: v.sc.samplePhase[i],
		SampleK:     v.sc.sampleK[i],
		Outcome:     v.Outcome(i),
		FaultPC:     v.FaultPC(i),
		AssertID:    v.AssertID(i),
		Steps:       v.Steps(i),
		Privacy:     v.Privacy(i),
	}
	if n := v.NumBranches(i); n > 0 {
		t.Branches = append(make([]BranchEvent, 0, n), v.Branches(i)...)
	}
	if n := int(v.sc.counts[secSyscalls][i]); n > 0 {
		t.Syscalls = make([]SyscallEvent, n)
		d := codec.NewDecoder(v.slab(secSyscalls, i), ErrCodec, "batch")
		for k := range t.Syscalls {
			t.Syscalls[k] = SyscallEvent{TID: int32(d.Uvarint()), Sysno: d.Varint(), Ret: d.Varint()}
		}
	}
	if n := int(v.sc.counts[secLocks][i]); n > 0 {
		t.Locks = make([]LockEvent, n)
		d := codec.NewDecoder(v.slab(secLocks, i), ErrCodec, "batch")
		for k := range t.Locks {
			t.Locks[k] = LockEvent{
				TID:     int32(d.Uvarint()),
				LockID:  int32(d.Uvarint()),
				PC:      int32(d.Uvarint()),
				Acquire: d.Byte() == 1,
			}
		}
	}
	if n := int(v.sc.counts[secDeadlock][i]); n > 0 {
		t.Deadlock = make([]DeadlockWait, n)
		d := codec.NewDecoder(v.slab(secDeadlock, i), ErrCodec, "batch")
		for k := range t.Deadlock {
			t.Deadlock[k] = DeadlockWait{
				TID:   int32(d.Uvarint()),
				PC:    int32(d.Uvarint()),
				Wants: int32(d.Uvarint()),
			}
		}
	}
	t.ScheduleHash = string(v.slab(secSchedHash, i))
	t.InputDigest = string(v.slab(secInputDigest, i))
	if n := v.NumInputs(i); n > 0 {
		t.Input = v.AppendInput(make([]int64, 0, n), i)
	}
	if n := int(v.sc.counts[secInputBuckets][i]); n > 0 {
		t.InputBuckets = make([]int64, n)
		d := codec.NewDecoder(v.slab(secInputBuckets, i), ErrCodec, "batch")
		for k := range t.InputBuckets {
			t.InputBuckets[k] = d.Varint()
		}
	}
	return t
}

// growU32 returns s resized to n entries, reusing capacity.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// appendBranchEvents appends the event encoding of a branch stream — one
// uvarint per event, ID<<1|taken — shared by the batch codec's branch slab
// and reconstruction keys.
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
