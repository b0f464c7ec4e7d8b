package memo

import (
	"fmt"
	"testing"
)

// resident recomputes the charged cost from the entries themselves.
func resident[V any](m *Memo[V]) int {
	n := 0
	for _, gen := range []map[string]entry[V]{m.cur, m.old} {
		for _, e := range gen {
			n += e.cost
		}
	}
	return n
}

// TestGenerations follows one entry through the two generations of a memory
// ten entries wide (four-byte keys, empty values): a hit in the old generation moves it back to the current
// one, an entry nobody asks for is gone after two rotations, and the
// accounting matches the entries at every step and never passes the budget.
func TestGenerations(t *testing.T) {
	const budget = 10 * (4 + entryOverhead)
	m := New[int](budget)
	next := 0
	fillUntil := func(what string, done func() bool) {
		t.Helper()
		for i := 0; !done(); i++ {
			if i > budget {
				t.Fatalf("no %s after %d inserts", what, i)
			}
			next++
			m.Put([]byte(fmt.Sprintf("k%03d", next)), next, 0)
			if r := m.ResidentBytes(); r != resident(m) || r > budget {
				t.Fatalf("insert %d: %d bytes accounted, %d held, budget %d", next, r, resident(m), budget)
			}
		}
	}
	where := func() (cur, old bool) {
		_, cur = m.cur["aaaa"]
		_, old = m.old["aaaa"]
		return cur, old
	}

	m.Put([]byte("aaaa"), -1, 0)
	fillUntil("rotation", func() bool { _, old := where(); return old })
	if v, ok := m.Get([]byte("aaaa")); !ok || v != -1 {
		t.Fatalf("Get in the old generation = %d, %v", v, ok)
	}
	if cur, old := where(); !cur || old {
		t.Fatalf("after a hit in the old generation: in current %v, in old %v; want moved to current", cur, old)
	}
	if r := m.ResidentBytes(); r != resident(m) {
		t.Fatalf("after the move: %d bytes accounted, %d held", r, resident(m))
	}
	fillUntil("eviction", func() bool { cur, old := where(); return !cur && !old })
	if _, ok := m.Get([]byte("aaaa")); ok {
		t.Fatal("an entry in neither generation was found")
	}
}

// TestPutKeepsAndSkips: a key the current generation holds keeps its value
// (two concurrent misses agree, and the second must not be charged twice),
// and a value dearer than a whole generation is not remembered.
func TestPutKeepsAndSkips(t *testing.T) {
	const one = 1 + 10 + entryOverhead // a one-byte key, a ten-byte value
	m := New[string](4 * one)
	m.Put([]byte("k"), "first", 10)
	m.Put([]byte("k"), "second", 10)
	if v, _ := m.Get([]byte("k")); v != "first" || m.ResidentBytes() != one {
		t.Fatalf("after a second Put of one key: %q, %d bytes; want the first value charged once, %d", v, m.ResidentBytes(), one)
	}
	m.Put([]byte("h"), "x", 10+one+1)
	if _, ok := m.Get([]byte("h")); ok || m.ResidentBytes() != one {
		t.Fatalf("an entry of %d bytes was remembered in generations of %d (%d bytes resident)", 2*one+1, 2*one, m.ResidentBytes())
	}
}
