package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// PrivacyLevel controls how much end-user input data ships with a trace.
// The paper (§3.1, citing Castro et al.) notes traces may disclose private
// information and calls for a principled framework to balance control-flow
// detail against privacy; these levels are the knob the experiments sweep.
type PrivacyLevel uint8

// Privacy levels, from most revealing to least.
const (
	// PrivacyRaw ships the full input vector (maximum diagnostic utility).
	PrivacyRaw PrivacyLevel = iota + 1
	// PrivacyBucketed ships inputs coarsened to buckets of BucketWidth,
	// preserving rough magnitude but not exact values.
	PrivacyBucketed
	// PrivacyHashed ships only a salted digest: the hive can correlate
	// repeat inputs but not recover them.
	PrivacyHashed
	// PrivacyOpaque ships nothing input-derived except the digest salted
	// per-pod, so even cross-pod correlation is impossible.
	PrivacyOpaque
)

// BucketWidth is the coarsening granularity for PrivacyBucketed.
const BucketWidth = 16

var privacyNames = map[PrivacyLevel]string{
	PrivacyRaw:      "raw",
	PrivacyBucketed: "bucketed",
	PrivacyHashed:   "hashed",
	PrivacyOpaque:   "opaque",
}

// String returns the level label.
func (p PrivacyLevel) String() string {
	if s, ok := privacyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("privacy(%d)", uint8(p))
}

// ApplyPrivacy populates the input-derived fields of t from input according
// to the level. salt is the digest salt: a fleet-wide constant for levels
// Raw..Hashed (enabling cross-pod correlation of identical inputs) and must
// be the pod's own secret for PrivacyOpaque. The level's input field is
// written into the capacity t already holds there, so t must own it (Finish
// hands over a recycled trace's); the other input field is set nil.
func ApplyPrivacy(t *Trace, input []int64, level PrivacyLevel, salt string) {
	t.Privacy = level
	t.InputDigest = DigestInput(salt, input)
	raw, buckets := t.Input[:0], t.InputBuckets[:0]
	t.Input, t.InputBuckets = nil, nil
	switch level {
	case PrivacyRaw:
		t.Input = append(raw, input...)
	case PrivacyBucketed:
		for _, v := range input {
			buckets = append(buckets, bucket(v))
		}
		t.InputBuckets = buckets
	case PrivacyHashed, PrivacyOpaque:
		// Digest only.
	}
}

func bucket(v int64) int64 {
	if v >= 0 {
		return v / BucketWidth
	}
	return -((-v + BucketWidth - 1) / BucketWidth)
}

// GuessInput simulates an attacker at the hive who tries to recover the
// user's input from a trace, given the candidate input domain [0, domain)
// per element. It returns the number of candidate vectors consistent with
// the shipped data, considering only the first input element for
// tractability (the experiments use 1-2 element inputs). A count of 1 means
// full disclosure; domain means no information.
func GuessInput(t *Trace, domain int64, salt string) int64 {
	switch t.Privacy {
	case PrivacyRaw:
		return 1
	case PrivacyBucketed:
		if len(t.InputBuckets) == 0 {
			return domain
		}
		b := t.InputBuckets[0]
		count := int64(0)
		for v := int64(0); v < domain; v++ {
			if bucket(v) == b {
				count++
			}
		}
		return count
	case PrivacyHashed:
		// The attacker can brute-force the salted digest over the domain
		// (the salt is fleet-wide and known to the hive).
		count := int64(0)
		rest := make([]int64, 0, 4)
		if len(t.Input) > 1 {
			rest = t.Input[1:]
		}
		for v := int64(0); v < domain; v++ {
			cand := append([]int64{v}, rest...)
			if DigestInput(salt, cand) == t.InputDigest {
				count++
			}
		}
		if count == 0 {
			// Multi-element inputs: digest covers all elements, brute force
			// over one coordinate fails — treat as no disclosure.
			return domain
		}
		return count
	default: // PrivacyOpaque
		return domain
	}
}

// scheduleHash digests a schedule decision sequence.
func scheduleHash(script []uint8) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(script)))
	h.Write(n[:])
	h.Write(script)
	return hex.EncodeToString(h.Sum(nil)[:8])
}
