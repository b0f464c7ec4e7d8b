// Package codec is the one reader of the uvarint framing every binary format
// of this repository shares: columnar trace batches and the length prefix of
// a compressed slab, execution tree snapshots and delta segments, journal
// headers, record frames, records and segment state, archive segments,
// fixes, proofs, guidance cases, the wire's submission tag, its binary ack
// and its control payloads. A field is a uvarint length and that many
// bytes, a list a uvarint count and that many items, an integer a (zig-zag)
// varint. Only the column loops of trace batches, which read one varint per
// event, read varints by hand (internal/analysis's TestOneUvarintReader
// holds the rest of the module to this package).
//
// A Decoder latches the first error, so a caller reads a whole record and
// checks once. It never sizes anything past its input: Count refuses a list
// the bytes left cannot hold, and Span's bounds check cannot wrap, however
// large a hostile length is.
package codec

import (
	"encoding/binary"
	"fmt"
)

// Decoder is a cursor over encoded bytes that latches the first error. Every
// error wraps the sentinel it was made with and names what it reads.
type Decoder struct {
	buf  []byte
	pos  int
	err  error
	kind error
	what string
	// str, when set by ShareStrings, is buf as one string: String serves
	// every string field as a substring of it, one allocation for all.
	str string
}

// NewDecoder returns a decoder over buf whose errors wrap kind and name what.
func NewDecoder(buf []byte, kind error, what string) Decoder {
	return Decoder{buf: buf, kind: kind, what: what}
}

// ShareStrings makes every later String a substring of one copy of the whole
// input, made now: worth it when a record holds many strings, and the
// strings may then keep the whole input alive.
func (d *Decoder) ShareStrings() { d.str = string(d.buf) }

// Err returns the first error, nil while every read succeeded.
func (d *Decoder) Err() error { return d.err }

// Pos returns the offset of the next read.
func (d *Decoder) Pos() int { return d.pos }

// Left returns how many bytes are left to read.
func (d *Decoder) Left() int { return len(d.buf) - d.pos }

// Fail latches an error, unless one is latched already: the format, after
// the sentinel and the name of the encoding, says what is wrong.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s: %s at offset %d", d.kind, d.what, fmt.Sprintf(format, args...), d.pos)
	}
}

// Finish latches an error if any byte is left unread, and returns the first
// error.
func (d *Decoder) Finish() error {
	if d.err == nil && d.pos != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.pos)
	}
	return d.err
}

func (d *Decoder) truncated() { d.Fail("truncated") }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.pos >= len(d.buf) {
		d.truncated()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

// Bool reads a byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail("bad bool")
	return false
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
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
		d.truncated()
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.truncated()
		return 0
	}
	d.pos += n
	return v
}

// Uint32 reads four bytes as a little-endian uint32: the CRC32 that closes
// a journal record and a snapshot segment.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil || len(d.buf)-d.pos < 4 {
		d.truncated()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v
}

// Count reads the length of a list whose every item takes at least minBytes,
// and refuses one the bytes left cannot hold: no list is sized past the
// input. It divides rather than multiplies, so a count near 2^64 cannot wrap
// the check, and only when minBytes is above one: a tree decode reads three
// counts of one-byte items a node, and a division for each shows in its
// profile.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	room := len(d.buf) - d.pos
	if minBytes > 1 {
		room /= minBytes
	}
	if d.err == nil && n > uint64(room) {
		d.Fail("%d items claimed in %d bytes", n, len(d.buf)-d.pos)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Span consumes a length-prefixed field and returns its bounds. The bounds
// check cannot wrap: a hostile length near 2^64 is a short field.
func (d *Decoder) Span() (start, end int) {
	n := d.Uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.pos) {
		d.truncated()
		return d.pos, d.pos
	}
	start = d.pos
	d.pos += int(n)
	return start, d.pos
}

// View is a length-prefixed field in place: it aliases the input, capped at
// its own length, and is nil when empty.
func (d *Decoder) View() []byte {
	start, end := d.Span()
	if start == end {
		return nil
	}
	return d.buf[start:end:end]
}

// Bytes is a length-prefixed field, copied out of the input; nil when empty.
func (d *Decoder) Bytes() []byte {
	v := d.View()
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// String is a length-prefixed string field: a copy, or a substring of the
// shared copy after ShareStrings.
func (d *Decoder) String() string {
	start, end := d.Span()
	if d.str != "" {
		return d.str[start:end]
	}
	return string(d.buf[start:end])
}

// AppendField appends a length-prefixed field, string or bytes.
func AppendField[T string | []byte](buf []byte, b T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBool appends a bool as one byte, 0 or 1.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}
