// Package memo is the bounded memory behind the hive's two pure caches, the
// reconstruction memo (exectree.Reconstructor) and the guidance generator's
// remembered verdicts: values under exact byte keys, charged a cost each
// against a byte budget, in two generations. Inserts fill the current
// generation; when it is full it becomes the old one (dropping the previous
// old one), and a hit in the old generation moves the entry back to the
// current — so whatever is still being asked for survives a rotation, and a
// full memory costs one generation of cold entries, not a cliff.
package memo

// Memo maps byte keys to values of type V under a byte budget. It is not
// safe for concurrent use: callers hold their own lock around it.
type Memo[V any] struct {
	// genBudget is the byte budget of one generation.
	genBudget          int
	cur, old           map[string]entry[V]
	curBytes, oldBytes int
}

type entry[V any] struct {
	v    V
	cost int
}

// entryOverhead approximates the per-entry bookkeeping (map bucket share,
// string header, entry) charged against the budget on top of the key and the
// value.
const entryOverhead = 64

// New returns an empty memory whose two generations together stay within
// budget bytes of charged cost.
func New[V any](budget int) *Memo[V] {
	return &Memo[V]{genBudget: budget / 2, cur: make(map[string]entry[V])}
}

// Get returns what is remembered under key. The lookup does not allocate;
// a hit in the old generation moves the entry to the current one.
func (m *Memo[V]) Get(key []byte) (v V, ok bool) {
	if e, hit := m.cur[string(key)]; hit {
		return e.v, true
	}
	e, hit := m.old[string(key)]
	if !hit {
		return v, false
	}
	delete(m.old, string(key))
	m.oldBytes -= e.cost
	m.put(string(key), e)
	return e.v, true
}

// Put remembers v, which holds size bytes, under key — charged the key, the
// value and a fixed overhead — rotating the generations first when it would
// not fit the current one. An entry too large for a whole generation is not
// remembered at all, and a key the current generation already holds keeps the
// value it has.
func (m *Memo[V]) Put(key []byte, v V, size int) {
	m.put(string(key), entry[V]{v, len(key) + size + entryOverhead})
}

func (m *Memo[V]) put(key string, e entry[V]) {
	if e.cost > m.genBudget {
		return
	}
	if _, dup := m.cur[key]; dup {
		return
	}
	if m.curBytes+e.cost > m.genBudget {
		m.old, m.oldBytes = m.cur, m.curBytes
		m.cur, m.curBytes = make(map[string]entry[V]), 0
	}
	m.cur[key] = e
	m.curBytes += e.cost
}

// ResidentBytes is the charged cost of everything remembered.
func (m *Memo[V]) ResidentBytes() int { return m.curBytes + m.oldBytes }
