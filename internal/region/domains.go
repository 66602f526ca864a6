package region

import (
	"cliffedge/internal/dsu"
	"cliffedge/internal/graph"
)

// Domains returns the connected components of the subgraph induced by the
// member bitset as regions, ordered by smallest member index (which is
// smallest NodeID, matching graph.ConnectedComponents order): one
// union-find pass over the CSR adjacency, and one scratch bitset for the
// borders of all the domains.
func Domains(g *graph.Graph, members graph.Bitset) []Region {
	idx := members.AppendIndices(nil)
	if len(idx) == 0 {
		return nil
	}
	d := dsu.New(g.Len())
	for _, i := range idx {
		for _, m := range g.NeighborIndices(i) {
			// Each intra-member edge is seen from both endpoints; union once.
			if m < i && members.Has(m) {
				d.Union(i, m)
			}
		}
	}
	// Group the ascending member indices by root: classes come out ordered
	// by smallest member.
	byRoot := make(map[int32][]int32, 4)
	order := make([]int32, 0, 4)
	for _, i := range idx {
		r := d.Find(i)
		if _, ok := byRoot[r]; !ok {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([]Region, len(order))
	seen := graph.NewBitset(g.Len())
	for k, r := range order {
		out[k] = NewFromIndicesScratch(g, byRoot[r], members, seen, nil)
	}
	return out
}
