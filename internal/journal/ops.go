package journal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
	"repro/internal/exectree"
)

// opVersion is bumped on any journal-incompatible change to the op
// encoding. A record of another version, or of a kind not listed below, is
// refused with ErrUnknownVersion. Version 2 carries fixes and proofs in
// their binary codecs (fix.Append, proof.Append); version 1 carried JSON.
// Version 3 carries batches of trace batch version 2, which dropped the
// coordinated-sampling columns.
const opVersion = 3

// Kind discriminates journaled operations.
type Kind uint8

// Journaled operation kinds. Together they cover every mutation of durable
// hive state: trace ingestion, fix synthesis outcomes, proof attempts (with
// the evidence the prover merged), and infeasibility certificates. Kind 1
// is reserved: it held per-trace batch encodings, which no build reads any
// more.
const (
	// OpSynthesis records the single-flight synthesis outcome for a failure
	// signature: a minted fix (fix.Append) or, with an empty Fix, the repair lab.
	OpSynthesis Kind = iota + 2
	// OpProof records one successful proof attempt: the proof document
	// (proof.Append, including the evidence paths the prover merged into the
	// tree).
	OpProof
	// OpCert records one infeasibility certificate attached to the tree.
	OpCert
	// OpBatchColumnar is one ingested columnar trace batch: Raw holds the
	// canonical batch bytes (trace.BatchCodec encoding, program ID in the
	// batch header) — the write-once-bytes pipeline's journal leg.
	// Transport compression never reaches here: a batch that crossed the
	// wire DEFLATE-compressed is inflated before ingest, so Raw is always
	// the decompressed canonical payload, byte-identical to an uncompressed
	// submission of the same batch. Session/Seq are set for deduplicated
	// wire submissions, so recovery also rebuilds the exactly-once dedup
	// table.
	OpBatchColumnar
)

// Op is one replayable journal operation. Exactly the fields for its Kind
// are set.
type Op struct {
	Kind Kind

	// OpBatchColumnar: the session and sequence number of a deduplicated
	// submission, and the verbatim wire-batch bytes.
	Session string
	Seq     uint64
	Raw     []byte

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
// zero Receipt or was minted for an op of another kind: an apply handed a
// receipt for another op is a bug in its caller, not a condition to handle.
func (r Receipt) Must(kind Kind) *Op {
	switch {
	case r.op == nil:
		panic("journal: an apply was handed the zero Receipt: its op is on no record")
	case r.op.Kind != kind:
		panic(fmt.Sprintf("journal: an apply of kind %d ops was handed the receipt of a kind %d op", kind, r.op.Kind))
	}
	return r.op
}

// appendOp appends an op's payload encoding to buf — the zero-alloc form
// the append hot path uses with a reused scratch buffer.
func appendOp(buf []byte, op *Op) []byte {
	buf = append(buf, opVersion, byte(op.Kind))
	switch op.Kind {
	case OpBatchColumnar:
		buf = codec.AppendField(buf, op.Session)
		buf = binary.AppendUvarint(buf, op.Seq)
		buf = codec.AppendField(buf, op.Raw)
	case OpSynthesis:
		buf = codec.AppendField(buf, op.Signature)
		buf = codec.AppendField(buf, op.Fix)
	case OpProof:
		buf = codec.AppendField(buf, op.Proof)
	case OpCert:
		buf = binary.AppendUvarint(buf, uint64(len(op.Prefix)))
		for _, e := range op.Prefix {
			buf = appendEdge(buf, e)
		}
		buf = appendEdge(buf, op.Missing)
	}
	return buf
}

// decodeOp parses an op payload. Every field is a copy except an
// OpBatchColumnar's Raw, which aliases data: a replay hands the batch bytes
// to its apply in place, and data outlives the apply (see Store.Replay).
func decodeOp(data []byte) (*Op, error) {
	d := codec.NewDecoder(data, ErrCorrupt, "op")
	if v := d.Byte(); d.Err() == nil && v != opVersion {
		return nil, fmt.Errorf("%w: op version %d; this build reads version %d only", ErrUnknownVersion, v, opVersion)
	}
	op := &Op{Kind: Kind(d.Byte())}
	switch op.Kind {
	case OpBatchColumnar:
		op.Session = d.String()
		op.Seq = d.Uvarint()
		op.Raw = d.View()
	case OpSynthesis:
		op.Signature = d.String()
		op.Fix = d.Bytes()
	case OpProof:
		op.Proof = d.Bytes()
	case OpCert:
		n := d.Count(1)
		for i := 0; i < n && d.Err() == nil; i++ {
			op.Prefix = append(op.Prefix, decodeEdge(&d))
		}
		op.Missing = decodeEdge(&d)
	default:
		if d.Err() == nil {
			return nil, fmt.Errorf("%w: op kind %d", ErrUnknownVersion, op.Kind)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return op, nil
}

func appendEdge(buf []byte, e exectree.Edge) []byte {
	v := uint64(e.ID) << 1
	if e.Taken {
		v |= 1
	}
	return binary.AppendUvarint(buf, v)
}

// decodeEdge reads an edge appendEdge wrote.
func decodeEdge(d *codec.Decoder) exectree.Edge {
	v := d.Uvarint()
	return exectree.Edge{ID: int32(v >> 1), Taken: v&1 == 1}
}
