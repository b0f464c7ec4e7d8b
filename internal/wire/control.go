package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/codec"
	"repro/internal/fix"
	"repro/internal/guidance"
)

// The control payloads, every one in the uvarint framing of package codec
// (a field is a uvarint length and that many bytes, a list a uvarint count
// and that many items):
//
//	hello        = uvarint version
//	hello ack    = uvarint version | bool has-placement [placement]
//	placement    = uvarint version | list of field (nodes) | varint vnodes | uvarint seed
//	error        = field message
//	redirect     = field program ID | field owner | bool has-placement [placement]
//	busy         = varint retry-after ms | field reason
//	get fixes    = field program ID | varint version
//	fixes        = varint version | list of fix (fix.Append)
//	get guidance = field program ID | varint max
//	guidance     = list of test case (guidance.Append)
//
// A reply's items lie back to back, each in its own package's encoding. Every
// decoder below refuses trailing bytes, and sizes no list past the bytes left.

// newDecoder returns a decoder over a control payload; what names it in
// errors, which wrap ErrFrame.
func newDecoder(payload []byte, what string) codec.Decoder {
	return codec.NewDecoder(payload, ErrFrame, what)
}

// AppendHello appends the payload of a hello naming ProtocolVersion.
func AppendHello(buf []byte) []byte {
	return binary.AppendUvarint(buf, ProtocolVersion)
}

// decodeHello returns the protocol version a hello names. A hello of an
// earlier generation was JSON: it names its version in a "version" member,
// and one with none (the feature strings of before versions) reads as 0.
func decodeHello(payload []byte) (int, error) {
	if v, ok := legacyVersion(payload); ok {
		if v > 1 {
			// No hello after version 1 was JSON: it is not what it says
			// it is.
			return 0, fmt.Errorf("%w: a JSON hello claiming protocol version %d", ErrFrame, v)
		}
		return v, nil
	}
	d := newDecoder(payload, "hello")
	v := d.Uvarint()
	if err := d.Finish(); err != nil {
		return 0, err
	}
	return int(min(v, 1<<31)), nil
}

// legacyVersion reads the version a JSON hello of protocol versions 0 and 1
// names; ok is false for a payload that is not one. Only the number after the
// first "version" key is read: enough to name the version in a refusal,
// nothing else of it is trusted.
func legacyVersion(payload []byte) (v int, ok bool) {
	if len(payload) == 0 || payload[0] != '{' {
		return 0, false
	}
	const key = `"version":`
	i := bytes.Index(payload, []byte(key))
	if i < 0 {
		return 0, true
	}
	rest := bytes.TrimLeft(payload[i+len(key):], " ")
	end := 0
	for end < len(rest) && end < 9 && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	v, _ = strconv.Atoi(string(rest[:end]))
	return v, true
}

func appendPlacement(buf []byte, p *PlacementPayload) []byte {
	buf = codec.AppendBool(buf, p != nil)
	if p == nil {
		return buf
	}
	buf = binary.AppendUvarint(buf, p.Version)
	buf = binary.AppendUvarint(buf, uint64(len(p.Nodes)))
	for _, n := range p.Nodes {
		buf = codec.AppendField(buf, n)
	}
	buf = binary.AppendVarint(buf, int64(p.VNodes))
	return binary.AppendUvarint(buf, p.Seed)
}

func readPlacement(d *codec.Decoder) *PlacementPayload {
	if !d.Bool() {
		return nil
	}
	p := &PlacementPayload{Version: d.Uvarint()}
	if n := d.Count(1); n > 0 {
		p.Nodes = make([]string, n)
		for i := range p.Nodes {
			p.Nodes[i] = d.String()
		}
	}
	p.VNodes = int(d.Varint())
	p.Seed = d.Uvarint()
	return p
}

func appendHelloAck(buf []byte, version int, p *PlacementPayload) []byte {
	buf = binary.AppendUvarint(buf, uint64(version))
	return appendPlacement(buf, p)
}

// decodeHelloAck returns the version and placement a hello ack names. A
// server of protocol version 1 or earlier cannot parse this client's hello and
// never acks it: it answers MsgError.
func decodeHelloAck(payload []byte) (int, *PlacementPayload, error) {
	d := newDecoder(payload, "hello ack")
	v := d.Uvarint()
	p := readPlacement(&d)
	if err := d.Finish(); err != nil {
		return 0, nil, err
	}
	return int(min(v, 1<<31)), p, nil
}

func appendError(buf []byte, msg string) []byte {
	return codec.AppendField(buf, msg)
}

func decodeError(payload []byte) (string, error) {
	d := newDecoder(payload, "error")
	msg := d.String()
	return msg, d.Finish()
}

func appendRedirect(buf []byte, programID, owner string, p *PlacementPayload) []byte {
	buf = codec.AppendField(buf, programID)
	buf = codec.AppendField(buf, owner)
	return appendPlacement(buf, p)
}

func decodeRedirect(payload []byte) (*RedirectError, error) {
	d := newDecoder(payload, "redirect")
	re := &RedirectError{ProgramID: d.String(), Owner: d.String(), Placement: readPlacement(&d)}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if re.Placement != nil {
		re.Version = re.Placement.Version
	}
	return re, nil
}

func appendBusy(buf []byte, retryAfterMs int64, reason string) []byte {
	buf = binary.AppendVarint(buf, retryAfterMs)
	return codec.AppendField(buf, reason)
}

func decodeBusy(payload []byte) (retryAfterMs int64, reason string, err error) {
	d := newDecoder(payload, "busy reply")
	retryAfterMs, reason = d.Varint(), d.String()
	return retryAfterMs, reason, d.Finish()
}

// appendRead appends a get-fixes or get-guidance request: the program and
// the request's one number, the version a pod has or the cases it wants.
func appendRead(buf []byte, programID string, n int) []byte {
	buf = codec.AppendField(buf, programID)
	return binary.AppendVarint(buf, int64(n))
}

func decodeRead(payload []byte, what string) (programID string, n int, err error) {
	d := newDecoder(payload, what)
	programID, n = d.String(), int(d.Varint())
	return programID, n, d.Finish()
}

func appendFixes(buf []byte, version int, fixes []fix.Fix) []byte {
	buf = binary.AppendVarint(buf, int64(version))
	buf = binary.AppendUvarint(buf, uint64(len(fixes)))
	for i := range fixes {
		buf = fix.Append(buf, &fixes[i])
	}
	return buf
}

// decodeFixes reads a fixes reply. Every fix is validated; the strings of
// all of them share one allocation, and none aliases payload.
func decodeFixes(payload []byte) ([]fix.Fix, int, error) {
	d := newDecoder(payload, "fixes reply")
	version := int(d.Varint())
	var fixes []fix.Fix
	if n := d.Count(fix.MinBytes); n > 0 {
		d.ShareStrings()
		fixes = make([]fix.Fix, n)
	}
	for i := range fixes {
		if err := fix.Read(&d, &fixes[i]); err != nil {
			return nil, 0, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, 0, err
	}
	return fixes, version, nil
}

func appendGuidance(buf []byte, cases []guidance.TestCase) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cases)))
	for i := range cases {
		buf = guidance.Append(buf, &cases[i])
	}
	return buf
}

// decodeGuidance reads a guidance reply; the strings of all its cases share
// one allocation, and none aliases payload.
func decodeGuidance(payload []byte) ([]guidance.TestCase, error) {
	d := newDecoder(payload, "guidance reply")
	var cases []guidance.TestCase
	if n := d.Count(guidance.MinBytes); n > 0 {
		d.ShareStrings()
		cases = make([]guidance.TestCase, n)
	}
	for i := range cases {
		if err := guidance.Read(&d, &cases[i]); err != nil {
			return nil, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return cases, nil
}
