package topo

import (
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/symbols"
)

// Materialized adapts an explicitly built graph.Graph to the Topology
// interface. The optional Index additionally exposes the id <-> label
// bijection (Labeled) for graphs built from an IP-graph specification.
// A Materialized topology is safe for concurrent use.
type Materialized struct {
	G  *graph.Graph
	Ix *core.Index // optional: nil for graphs without IP labels
}

// NewMaterialized wraps a built graph (and its label index, which may be
// nil) as a Topology.
func NewMaterialized(g *graph.Graph, ix *core.Index) *Materialized {
	return &Materialized{G: g, Ix: ix}
}

// N returns the number of nodes.
func (t *Materialized) N() int64 { return int64(t.G.N()) }

// MaxDegree returns the maximum out-degree.
func (t *Materialized) MaxDegree() int { return t.G.MaxDegree() }

// Directed reports whether the graph is directed.
func (t *Materialized) Directed() bool { return t.G.Directed }

// Neighbors appends u's adjacency list (already sorted and deduplicated by
// the CSR builder) to buf[:0].
func (t *Materialized) Neighbors(u int64, buf []int64) []int64 {
	buf = buf[:0]
	for _, v := range t.G.Neighbors(int32(u)) {
		buf = append(buf, int64(v))
	}
	return buf
}

// Adjacent reports whether v is in u's adjacency list, by binary search.
// Ids outside [0, N) are adjacent to nothing.
func (t *Materialized) Adjacent(u, v int64) bool {
	n := t.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	_, ok := slices.BinarySearch(t.G.Neighbors(int32(u)), int32(v))
	return ok
}

// Label returns the label of node u; it panics when no Index is attached.
func (t *Materialized) Label(u int64) symbols.Label { return t.Ix.Label(int32(u)) }

// ID returns the node id of a label, or -1; it panics when no Index is
// attached.
func (t *Materialized) ID(x symbols.Label) int64 { return int64(t.Ix.ID(x)) }
