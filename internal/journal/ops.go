package journal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/exectree"
)

// opVersion is bumped on any journal-incompatible change to the op
// encoding.
const opVersion = 1

// Kind discriminates journaled operations.
type Kind uint8

// Journaled operation kinds. Together they cover every mutation of durable
// hive state: trace ingestion, fix synthesis outcomes, proof attempts (with
// the evidence the prover merged), and infeasibility certificates.
const (
	// OpBatch is one ingested trace batch as per-trace encodings
	// (post-privacy traces). The hive no longer writes it — every batch is
	// journaled as OpBatchColumnar — and reads it only so data directories
	// written before that still replay. Session/Seq are set for
	// deduplicated wire submissions so recovery also rebuilds the
	// exactly-once dedup table.
	OpBatch Kind = iota + 1
	// OpSynthesis records the single-flight synthesis outcome for a failure
	// signature: a minted fix (JSON) or, with an empty Fix, the repair lab.
	OpSynthesis
	// OpProof records one successful proof attempt: the proof document
	// (JSON, including the evidence paths the prover merged into the tree).
	OpProof
	// OpCert records one infeasibility certificate attached to the tree.
	OpCert
	// OpBatchColumnar is one ingested columnar trace batch: Raw holds the
	// canonical batch bytes (trace.BatchCodec encoding, program ID in the
	// batch header) — the write-once-bytes pipeline's journal leg.
	// Transport compression never reaches here: a batch that crossed the
	// wire DEFLATE-compressed is inflated before ingest, so Raw is always
	// the decompressed canonical payload, byte-identical to an uncompressed
	// submission of the same batch. Session/Seq as in OpBatch.
	OpBatchColumnar
)

// Op is one replayable journal operation. Exactly the fields for its Kind
// are set.
type Op struct {
	Kind Kind

	// OpBatch (Session/Seq shared with OpBatchColumnar).
	Session string
	Seq     uint64
	Traces  [][]byte

	// OpBatchColumnar: the verbatim wire-batch bytes.
	Raw []byte

	// OpSynthesis.
	Signature string
	Fix       []byte

	// OpProof.
	Proof []byte

	// OpCert.
	Prefix  []exectree.Edge
	Missing exectree.Edge
}

// Receipt is the journal's word that one op is on record: Commit mints one
// for an op it has made durable, and a replay hands out one per record it
// reads back. Its fields are unexported, so no other package can make a
// non-zero Receipt: a mutator that takes one cannot run ahead of the record
// of the op it applies. The zero Receipt stands for no record at all.
type Receipt struct {
	op     *Op
	replay bool
}

// Op returns the op the receipt was minted for, nil for the zero Receipt.
func (r Receipt) Op() *Op { return r.op }

// Replayed reports whether a replay handed the receipt out, not a live
// Commit.
func (r Receipt) Replayed() bool { return r.replay }

// Must returns the op the receipt was minted for, and panics if r is the
// zero Receipt or was minted for an op of none of kinds: an apply handed a
// receipt for another op is a bug in its caller, not a condition to handle.
func (r Receipt) Must(kinds ...Kind) *Op {
	if r.op != nil {
		for _, k := range kinds {
			if r.op.Kind == k {
				return r.op
			}
		}
		panic(fmt.Sprintf("journal: an apply of another op kind was handed the receipt of a kind %d op", r.op.Kind))
	}
	panic("journal: an apply was handed the zero Receipt: its op is on no record")
}

// appendOp appends an op's payload encoding to buf — the zero-alloc form
// the append hot path uses with a reused scratch buffer.
func appendOp(buf []byte, op *Op) []byte {
	buf = append(buf, opVersion, byte(op.Kind))
	switch op.Kind {
	case OpBatch:
		buf = appendBytes(buf, []byte(op.Session))
		buf = binary.AppendUvarint(buf, op.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(op.Traces)))
		for _, tr := range op.Traces {
			buf = appendBytes(buf, tr)
		}
	case OpBatchColumnar:
		buf = appendBytes(buf, []byte(op.Session))
		buf = binary.AppendUvarint(buf, op.Seq)
		buf = appendBytes(buf, op.Raw)
	case OpSynthesis:
		buf = appendBytes(buf, []byte(op.Signature))
		buf = appendBytes(buf, op.Fix)
	case OpProof:
		buf = appendBytes(buf, op.Proof)
	case OpCert:
		buf = binary.AppendUvarint(buf, uint64(len(op.Prefix)))
		for _, e := range op.Prefix {
			buf = appendEdge(buf, e)
		}
		buf = appendEdge(buf, op.Missing)
	}
	return buf
}

// decodeOp parses an op payload.
func decodeOp(data []byte) (*Op, error) {
	d := &opDecoder{buf: data}
	if v := d.byte(); v != opVersion {
		return nil, fmt.Errorf("%w: op version %d", ErrCorrupt, v)
	}
	op := &Op{Kind: Kind(d.byte())}
	switch op.Kind {
	case OpBatch:
		op.Session = string(d.bytes())
		op.Seq = d.uvarint()
		n := int(d.uvarint())
		if d.err == nil && n > len(data) {
			return nil, fmt.Errorf("%w: implausible batch count %d", ErrCorrupt, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			op.Traces = append(op.Traces, d.bytes())
		}
	case OpBatchColumnar:
		op.Session = string(d.bytes())
		op.Seq = d.uvarint()
		op.Raw = d.bytes()
	case OpSynthesis:
		op.Signature = string(d.bytes())
		op.Fix = d.bytes()
	case OpProof:
		op.Proof = d.bytes()
	case OpCert:
		n := int(d.uvarint())
		if d.err == nil && n > len(data) {
			return nil, fmt.Errorf("%w: implausible prefix length %d", ErrCorrupt, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			op.Prefix = append(op.Prefix, d.edge())
		}
		op.Missing = d.edge()
	default:
		return nil, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, op.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing op bytes", ErrCorrupt, len(data)-d.pos)
	}
	return op, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendEdge(buf []byte, e exectree.Edge) []byte {
	v := uint64(e.ID) << 1
	if e.Taken {
		v |= 1
	}
	return binary.AppendUvarint(buf, v)
}

// opDecoder is a cursor over an encoded op that latches the first error.
type opDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *opDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated op at offset %d", ErrCorrupt, d.pos)
	}
}

func (d *opDecoder) byte() byte {
	if d.err != nil || d.pos >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *opDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *opDecoder) bytes() []byte {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || d.pos+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := append([]byte(nil), d.buf[d.pos:d.pos+n]...)
	d.pos += n
	return b
}

func (d *opDecoder) edge() exectree.Edge {
	v := d.uvarint()
	return exectree.Edge{ID: int32(v >> 1), Taken: v&1 == 1}
}
