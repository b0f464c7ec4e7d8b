// Package ingest seeds viewescape violations: borrowed BatchView bytes
// escaping their frame lifetime, and use-after-reclaim on pooled values.
package ingest

import (
	"sync"

	"fixture/internal/trace"
)

type holder struct {
	raw  []byte
	tail [][]byte
}

var lastFrame []byte

// stashField stores borrowed bytes into a longer-lived struct. Finding
// expected.
func stashField(h *holder, v *trace.BatchView) {
	h.raw = v.Bytes()
}

// stashLiteral embeds borrowed bytes in a composite literal. Finding
// expected.
func stashLiteral(v *trace.BatchView) *holder {
	return &holder{raw: v.Bytes()}
}

// stashGlobal stores borrowed bytes at package level. Finding expected.
func stashGlobal(v *trace.BatchView) {
	lastFrame = v.Bytes()
}

// sendBorrow ships a tracked borrow over a channel. Finding expected.
func sendBorrow(v *trace.BatchView, ch chan []byte) {
	b := v.Bytes()
	ch <- b
}

// returnBorrow leaks the borrow to an unknown caller. Finding expected.
func returnBorrow(v *trace.BatchView) []byte {
	return v.Bytes()
}

// useAfterRelease touches the view after returning it to the pool. Finding
// expected.
func useAfterRelease(v *trace.BatchView) int {
	v.Release()
	return v.Len()
}

// useAfterPut touches a pooled buffer after Put. Finding expected.
func useAfterPut(p *sync.Pool) int {
	b := p.Get().(*[]byte)
	p.Put(b)
	return len(*b)
}

// materialize uses the sanctioned owning copy. Clean.
func materialize(v *trace.BatchView) *trace.Trace {
	return v.Materialize(0)
}

// copyOut makes an owned copy before returning. Clean.
func copyOut(v *trace.BatchView) []byte {
	return append([]byte(nil), v.Bytes()...)
}

// syncConsume is a deliberate exception: the suppression must silence it.
func syncConsume(v *trace.BatchView) []byte {
	//lint:allow viewescape caller consumes the frame synchronously before Release
	return v.Bytes()
}

type pathHolder struct {
	path []trace.BranchEvent
}

// stashBranches keeps a trace's slice of the branch column past the frame,
// through a local. Finding expected.
func stashBranches(h *pathHolder, v *trace.BatchView) {
	path := v.Branches(0)
	h.path = path
}

// countTaken reads the branch column while the view is live. Clean.
func countTaken(v *trace.BatchView) int {
	taken := 0
	for i := 0; i < v.Len(); i++ {
		for _, b := range v.Branches(i) {
			if b.Taken {
				taken++
			}
		}
	}
	return taken
}
