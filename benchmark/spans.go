package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName names the layer boundary a span was taken at.
type spanName uint8

const (
	spanDrain spanName = iota
	spanSeal
	spanWireSubmit
	spanHiveSubmit
	spanWireGuidance
	spanHiveGuidance
	spanWireFixes
	spanHiveFixes
	spanFSWrite
	spanFSSync
)

var spanNames = [...]string{
	spanDrain:        "pod.drain",
	spanSeal:         "pod.seal",
	spanWireSubmit:   "wire.submit",
	spanHiveSubmit:   "hive.submit",
	spanWireGuidance: "wire.guidance",
	spanHiveGuidance: "hive.guidance",
	spanWireFixes:    "wire.fixes",
	spanHiveFixes:    "hive.fixes",
	spanFSWrite:      "journal.fs.write",
	spanFSSync:       "journal.fs.sync",
}

// span is one timed call at a layer boundary. Spans of one drain share the
// drain's id as ancestor: pod.drain → {pod.seal, wire.submit → hive.submit →
// journal.fs.*}; a read is wire.guidance → hive.guidance. Client-side spans
// know their parent when they are taken; server-side spans are adopted after
// the run (tracer.adopt) by the client span of the same worker or program
// that contains them in time.
type span struct {
	name       spanName
	start, end int64 // ns since the tracer's epoch
	id, parent uint64
	worker     int32 // benchmark worker the span belongs to, -1 unknown
	prog       int32 // corpus index of the program, -1 unknown
	file       int32 // index into tracer.files, journal.fs spans only
	traces     int32 // traces carried (drain, seal, submit); bytes for fs.write
	frames     int32 // frames carried (seal, wire.submit)
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory. record claims a slot of a pre-sized slice
// with one atomic add, so the timed path takes no lock and allocates
// nothing; spans past the capacity are counted and dropped.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	spans   []span
	next    atomic.Int64
	ids     atomic.Uint64
	dropped atomic.Int64

	fileMu sync.Mutex
	files  []string
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) id() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	s.start = start.Sub(t.epoch).Nanoseconds()
	s.end = end.Sub(t.epoch).Nanoseconds()
	if s.id == 0 {
		s.id = t.id()
	}
	t.spans[i] = s
}

// fileIndex interns a file name; it is called when a file is opened, never
// on the write path.
func (t *tracer) fileIndex(name string) int32 {
	t.fileMu.Lock()
	defer t.fileMu.Unlock()
	t.files = append(t.files, name)
	return int32(len(t.files) - 1)
}

// recorded is the slice of spans taken so far.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// adopt gives every parentless span named child the innermost span named
// parent that has the same key and contains it in time.
func (t *tracer) adopt(child, parent spanName, key func(*span) int32) {
	spans := t.recorded()
	byKey := make(map[int32][]*span)
	for i := range spans {
		if s := &spans[i]; s.name == parent {
			byKey[key(s)] = append(byKey[key(s)], s)
		}
	}
	for _, ps := range byKey {
		sort.Slice(ps, func(i, j int) bool { return ps[i].start < ps[j].start })
	}
	for i := range spans {
		c := &spans[i]
		if c.name != child || c.parent != 0 {
			continue
		}
		ps := byKey[key(c)]
		// Last parent starting at or before the child; walk back past
		// parents that ended too early (overlapping parents are rare:
		// two workers on one program).
		j := sort.Search(len(ps), func(k int) bool { return ps[k].start > c.start }) - 1
		for ; j >= 0; j-- {
			if ps[j].end >= c.end {
				c.parent = ps[j].id
				break
			}
		}
	}
}

// cover sums, over every span named parent, the part of its interval that
// its children named in kids cover; a span's self time is its duration
// minus that.
func (t *tracer) cover(parent spanName, kids ...spanName) (covered, total int64, parents int) {
	spans := t.recorded()
	isKid := func(n spanName) bool {
		for _, k := range kids {
			if k == n {
				return true
			}
		}
		return false
	}
	children := make(map[uint64][]*span)
	for i := range spans {
		if s := &spans[i]; s.parent != 0 && isKid(s.name) {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i := range spans {
		p := &spans[i]
		if p.name != parent {
			continue
		}
		parents++
		total += p.dur()
		cs := children[p.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		at := p.start
		for _, c := range cs {
			lo, hi := c.start, c.end
			if lo < at {
				lo = at
			}
			if hi > p.end {
				hi = p.end
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
	}
	return covered, total, parents
}

// each calls fn for every recorded span with the given name.
func (t *tracer) each(name spanName, fn func(*span)) {
	spans := t.recorded()
	for i := range spans {
		if spans[i].name == name {
			fn(&spans[i])
		}
	}
}

// write dumps the spans as JSON lines: {name, start_ns, end_ns, id, parent},
// plus the file name on journal.fs spans.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		File   string `json:"file,omitempty"`
	}
	for _, s := range t.recorded() {
		l := line{Name: spanNames[s.name], Start: s.start, End: s.end, ID: s.id, Parent: s.parent}
		if s.name == spanFSWrite || s.name == spanFSSync {
			l.File = t.files[s.file]
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
