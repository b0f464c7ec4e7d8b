// Package ring implements the consistent-hash placement map that shards
// programs across hive processes. Ownership is a pure function of
// (placement map, key): every node is hashed onto a 64-bit circle at
// VNodes points, a key is owned by the first node point at or clockwise
// from the key's hash, and nothing depends on arrival order or on which
// process evaluates the lookup — two fleet members holding the same map
// always agree on every key (the dispersal framing: where state lands is
// a function of its key, never of history).
//
// Maps are immutable and versioned: membership changes produce a new Map
// with Version+1, and the wire layer uses the version to decide whether a
// redirect carries news. Virtual nodes keep the key movement under a
// membership change close to the theoretical minimum (|keys|/|nodes|).
package ring

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count used when a caller does not pin
// one. 64 points per node keeps the per-node load imbalance in the low
// percents for small fleets without making map construction noticeable.
const DefaultVNodes = 64

// Map is one immutable placement: a versioned node set hashed onto the
// circle. The exported fields are the wire codec (PlacementPayload carries
// them verbatim); the point table is rebuilt deterministically from them,
// so two maps with equal fields are behaviorally identical.
type Map struct {
	version uint64
	nodes   []string
	vnodes  int
	seed    uint64

	// points is the sorted circle: every node appears vnodes times.
	points []point
}

// point is one virtual node on the circle.
type point struct {
	hash uint64
	node int32
}

// New builds a version-1 placement over nodes (deduplicated, sorted).
// vnodes <= 0 uses DefaultVNodes. seed perturbs every hash, so distinct
// fleets with the same node names still land keys differently.
func New(nodes []string, vnodes int, seed uint64) *Map {
	return NewVersion(1, nodes, vnodes, seed)
}

// NewVersion builds a placement at an explicit version — the constructor
// the wire layer uses to materialize an advertised PlacementPayload.
func NewVersion(version uint64, nodes []string, vnodes int, seed uint64) *Map {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	m := &Map{version: version, nodes: uniq, vnodes: vnodes, seed: seed}
	m.points = make([]point, 0, len(uniq)*vnodes)
	var buf [8]byte
	for ni, n := range uniq {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			binary.BigEndian.PutUint64(buf[:], seed)
			_, _ = h.Write(buf[:])
			_, _ = h.Write([]byte(n))
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			_, _ = h.Write(buf[:])
			m.points = append(m.points, point{hash: mix64(h.Sum64()), node: int32(ni)})
		}
	}
	sort.Slice(m.points, func(i, j int) bool {
		if m.points[i].hash != m.points[j].hash {
			return m.points[i].hash < m.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node index so the circle
		// is still a pure function of the node set.
		return m.points[i].node < m.points[j].node
	})
	return m
}

// Version returns the placement version.
func (m *Map) Version() uint64 { return m.version }

// Nodes returns the member nodes in sorted order. The slice is shared;
// callers must not mutate it.
func (m *Map) Nodes() []string { return m.nodes }

// VNodes returns the virtual-node count per member.
func (m *Map) VNodes() int { return m.vnodes }

// Seed returns the hash seed.
func (m *Map) Seed() uint64 { return m.seed }

// Contains reports membership.
func (m *Map) Contains(node string) bool {
	i := sort.SearchStrings(m.nodes, node)
	return i < len(m.nodes) && m.nodes[i] == node
}

// Owner returns the node owning key, or "" on an empty map. The lookup is
// a pure function of (map, key): the first circle point at or clockwise
// from the key's hash.
func (m *Map) Owner(key string) string {
	if len(m.points) == 0 {
		return ""
	}
	kh := m.keyHash(key)
	i := sort.Search(len(m.points), func(i int) bool { return m.points[i].hash >= kh })
	if i == len(m.points) {
		i = 0 // wrap: past the last point the circle continues at the first
	}
	return m.nodes[m.points[i].node]
}

// keyHash hashes a key onto the circle.
func (m *Map) keyHash(key string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], m.seed)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a alone leaves the trailing
// bytes of the input dominating the low bits of the sum — virtual nodes
// differing only in their index would cluster on the circle — so every
// hash is pushed through a full-avalanche mix before placement.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Without returns a new placement at Version+1 with node removed. Removing
// a non-member still bumps the version (the caller decided membership
// changed; an idempotent re-remove must not fork the version history), so
// callers should check Contains first when that matters.
func (m *Map) Without(node string) *Map {
	nodes := make([]string, 0, len(m.nodes))
	for _, n := range m.nodes {
		if n != node {
			nodes = append(nodes, n)
		}
	}
	return NewVersion(m.version+1, nodes, m.vnodes, m.seed)
}

// String renders the placement for logs.
func (m *Map) String() string {
	return fmt.Sprintf("ring v%d over %d nodes (vnodes=%d seed=%d)", m.version, len(m.nodes), m.vnodes, m.seed)
}
