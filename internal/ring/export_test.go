package ring

// With returns a new placement at Version+1 with node added.
func (m *Map) With(node string) *Map {
	nodes := make([]string, 0, len(m.nodes)+1)
	nodes = append(nodes, m.nodes...)
	nodes = append(nodes, node)
	return NewVersion(m.version+1, nodes, m.vnodes, m.seed)
}
