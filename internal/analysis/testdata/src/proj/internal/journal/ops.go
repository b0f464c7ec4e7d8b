package journal

// OpKind mirrors the journal's record kinds.
type OpKind uint8

// The record kinds; all but OpBatch are live mutations with one author each
// in the hive.
const (
	OpBatch OpKind = iota + 1
	OpBatchColumnar
	OpSynthesis
	OpProof
	OpCert
)

// Op mirrors the record the hive appends.
type Op struct {
	Kind OpKind
}
