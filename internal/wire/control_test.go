package wire

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/fix"
	"repro/internal/guidance"
)

// TestVersion1HelloRefused: the JSON hello of protocol version 1 is answered
// MsgError naming both versions, and the connection is still served: a
// binary hello on it is accepted.
func TestVersion1HelloRefused(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgHello, []byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := ReadFrame(conn)
	if err != nil || respType != MsgError {
		t.Fatalf("a version 1 hello answered with type %d, err %v; want MsgError", respType, err)
	}
	msg, err := decodeError(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"version 1", fmt.Sprintf("version %d", ProtocolVersion)} {
		if !strings.Contains(msg, want) {
			t.Fatalf("refusal %q does not name %q", msg, want)
		}
	}
	if err := WriteFrame(conn, MsgHello, AppendHello(nil)); err != nil {
		t.Fatal(err)
	}
	if respType, resp, err := ReadFrame(conn); err != nil || respType != MsgHelloAck {
		t.Fatalf("a binary hello after the refusal answered with type %d (%q), err %v", respType, resp, err)
	}
}

// controlCodecs are the control payloads, each as an encoder of a random
// value and the decoder of its payload, the decoded value returned for
// comparison.
var controlCodecs = map[string]struct {
	encode func(rng *rand.Rand) (any, []byte)
	decode func([]byte) (any, error)
}{
	"hello": {
		func(rng *rand.Rand) (any, []byte) {
			return ProtocolVersion, AppendHello(nil)
		},
		func(b []byte) (any, error) { return decodeHello(b) },
	},
	"hello ack": {
		func(rng *rand.Rand) (any, []byte) {
			v, p := rng.Intn(1<<20), randomPlacement(rng)
			return []any{v, p}, appendHelloAck(nil, v, p)
		},
		func(b []byte) (any, error) {
			v, p, err := decodeHelloAck(b)
			return []any{v, p}, err
		},
	},
	"error": {
		func(rng *rand.Rand) (any, []byte) {
			msg := strings.Repeat("e", rng.Intn(300))
			return msg, appendError(nil, msg)
		},
		func(b []byte) (any, error) { return decodeError(b) },
	},
	"redirect": {
		func(rng *rand.Rand) (any, []byte) {
			re := &RedirectError{ProgramID: "prog", Owner: "127.0.0.1:7171", Placement: randomPlacement(rng)}
			if re.Placement != nil {
				re.Version = re.Placement.Version
			}
			return re, appendRedirect(nil, re.ProgramID, re.Owner, re.Placement)
		},
		func(b []byte) (any, error) { return decodeRedirect(b) },
	},
	"busy": {
		func(rng *rand.Rand) (any, []byte) {
			ms, reason := rng.Int63n(1<<40)-1<<39, strings.Repeat("r", rng.Intn(40))
			return []any{ms, reason}, appendBusy(nil, ms, reason)
		},
		func(b []byte) (any, error) {
			ms, reason, err := decodeBusy(b)
			return []any{ms, reason}, err
		},
	},
	"read": {
		func(rng *rand.Rand) (any, []byte) {
			id, n := strings.Repeat("p", rng.Intn(40)), rng.Intn(1<<30)-1<<29
			return []any{id, n}, appendRead(nil, id, n)
		},
		func(b []byte) (any, error) {
			id, n, err := decodeRead(b, "read")
			return []any{id, n}, err
		},
	},
	"fixes": {
		func(rng *rand.Rand) (any, []byte) {
			var fixes []fix.Fix
			for i := rng.Intn(4); i > 0; i-- {
				fixes = append(fixes, fix.Fix{
					ID: len(fixes) + 1, ProgramID: "prog", Kind: fix.KindInputGuard, TargetSignature: "crash@3#-1",
					Guard: &fix.InputGuard{
						Danger:    []fix.GuardTerm{{Coeffs: []fix.Coeff{{Var: 0, K: 1}}, Const: -100, Cmp: 5}},
						SafeInput: []int64{rng.Int63n(100)},
					},
				})
			}
			version := rng.Intn(100)
			return []any{fixes, version}, appendFixes(nil, version, fixes)
		},
		func(b []byte) (any, error) {
			fixes, version, err := decodeFixes(b)
			return []any{fixes, version}, err
		},
	},
	"guidance": {
		func(rng *rand.Rand) (any, []byte) {
			var cases []guidance.TestCase
			for i := rng.Intn(4); i > 0; i-- {
				tc := guidance.TestCase{ProgramID: "prog", Input: []int64{rng.Int63()}, Reason: "cover"}
				if rng.Intn(2) == 0 {
					tc.Input, tc.Schedule = nil, []int{}
				}
				cases = append(cases, tc)
			}
			return cases, appendGuidance(nil, cases)
		},
		func(b []byte) (any, error) { return decodeGuidance(b) },
	},
}

// randomPlacement is nil a third of the time.
func randomPlacement(rng *rand.Rand) *PlacementPayload {
	if rng.Intn(3) == 0 {
		return nil
	}
	p := &PlacementPayload{Version: rng.Uint64(), VNodes: rng.Intn(512), Seed: rng.Uint64()}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		p.Nodes = append(p.Nodes, fmt.Sprintf("10.0.0.%d:7171", i))
	}
	return p
}

// TestControlRoundTrip: every control payload decodes from its encoding to
// the value encoded, and every cut or extended encoding is refused.
func TestControlRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, c := range controlCodecs {
		for i := 0; i < 300; i++ {
			want, data := c.encode(rng)
			got, err := c.decode(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
			}
			if _, err := c.decode(append(data, 0)); err == nil {
				t.Fatalf("%s: a trailing byte decoded", name)
			}
			if n := len(data); n > 1 {
				if _, err := c.decode(data[:rng.Intn(n)]); err == nil && name != "hello" {
					t.Fatalf("%s: a cut encoding decoded", name)
				}
			}
		}
	}
}

// fuzzControl is the body of every control payload's fuzz target: seeded
// with the hostile uvarints in each count or length after prefixes, it
// refuses what it cannot read, never panics and sizes nothing past the
// input.
func fuzzControl(f *testing.F, name string, prefixes ...[]byte) {
	c := controlCodecs[name]
	_, valid := c.encode(rand.New(rand.NewSource(1)))
	f.Add(valid)
	decode := func(b []byte) error { _, err := c.decode(b); return err }
	codectest.Fuzz(f, decode, prefixes...)
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = codectest.Decode(t, data, decode)
	})
}

func FuzzHelloDecode(f *testing.F) { fuzzControl(f, "hello", nil) }

func FuzzHelloAckDecode(f *testing.F) {
	fuzzControl(f, "hello ack", []byte{2, 1}, []byte{2, 1, 0}, []byte{2, 1, 0, 1})
}

func FuzzErrorDecode(f *testing.F) { fuzzControl(f, "error", nil) }

func FuzzRedirectDecode(f *testing.F) {
	fuzzControl(f, "redirect", nil, []byte{0}, []byte{0, 0, 1, 0})
}

func FuzzBusyDecode(f *testing.F) { fuzzControl(f, "busy", []byte{2}) }

func FuzzReadDecode(f *testing.F) { fuzzControl(f, "read", nil) }

func FuzzFixesDecode(f *testing.F) { fuzzControl(f, "fixes", []byte{2}, []byte{2, 1}) }

func FuzzGuidanceDecode(f *testing.F) { fuzzControl(f, "guidance", nil, []byte{1}) }
