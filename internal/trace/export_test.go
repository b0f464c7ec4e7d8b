package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// PathKey returns a stable digest of the branch decision sequence, used by
// the hive to deduplicate identical paths cheaply.
func (t *Trace) PathKey() string {
	h := sha256.New()
	var buf [8]byte
	for _, b := range t.Branches {
		v := uint64(b.ID) << 1
		if b.Taken {
			v |= 1
		}
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(t.ScheduleHash))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// Bits packs the branch decisions into the bit-vector form the paper
// describes ("one bit per branch ... encoding an execution as a bit-vector").
// Bit i corresponds to Branches[i].Taken.
func (t *Trace) Bits() []byte {
	out := make([]byte, (len(t.Branches)+7)/8)
	for i, b := range t.Branches {
		if b.Taken {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}
