// Package trace is a miniature stand-in for the real internal/trace: just
// enough surface (Trace, BatchView, Collector, ApplyPrivacy) for the
// analyzers to resolve the named types they guard. Analyzers match packages
// by module-relative suffix, so fixture/internal/trace plays the role of
// repro/internal/trace.
package trace

// PrivacyLevel mirrors the real knob.
type PrivacyLevel uint8

// Trace mirrors the fields the privacy boundary owns.
type Trace struct {
	ProgramID    string
	PodID        string
	Input        []int64
	InputBuckets []int64
	InputDigest  string
	Privacy      PrivacyLevel
}

// ApplyPrivacy is the scrub: the only legal writer of input-derived fields.
func ApplyPrivacy(t *Trace, input []int64, level PrivacyLevel, salt string) {
	t.Privacy = level
	t.Input = nil
	t.InputBuckets = nil
	t.InputDigest = salt
	if level == 1 {
		t.Input = append([]int64(nil), input...)
	}
}

// Collector mirrors the pod-side sink.
type Collector struct {
	programID string
}

// Finish is the sanctioned Trace constructor.
func (c *Collector) Finish(input []int64, level PrivacyLevel, salt string) *Trace {
	t := &Trace{ProgramID: c.programID}
	ApplyPrivacy(t, input, level, salt)
	return t
}

// BranchEvent mirrors one recorded branch decision.
type BranchEvent struct {
	ID    int32
	Taken bool
}

// BatchView mirrors the pooled zero-copy decode result.
type BatchView struct {
	buf      []byte
	branches []BranchEvent
	n        int
}

// DecodeBatch mirrors the pooled constructor.
func DecodeBatch(buf []byte) (*BatchView, error) {
	return &BatchView{buf: buf, n: 1}, nil
}

// Bytes borrows the underlying frame.
func (v *BatchView) Bytes() []byte { return v.buf }

// Branches borrows trace i's slice of the pooled branch column.
func (v *BatchView) Branches(i int) []BranchEvent { return v.branches }

// Len reports the batch size.
func (v *BatchView) Len() int { return v.n }

// Release returns the view's scratch to its pool.
func (v *BatchView) Release() { v.buf = nil }

// Materialize copies one trace out of the frame.
func (v *BatchView) Materialize(i int) *Trace { return &Trace{} }
