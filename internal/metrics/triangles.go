package metrics

import (
	"sort"

	"chameleon/internal/uncertain"
)

// ExpectedTriangles computes E[#triangles] exactly: by linearity of
// expectation over the support triangles, each contributes the product of
// its three edge probabilities. Triangle enumeration uses the standard
// degree-ordered intersection, O(m^{3/2}) on the support graph.
func ExpectedTriangles(g *uncertain.Graph) float64 {
	n := g.NumNodes()
	// Orient each support edge from the lower-rank endpoint to the higher
	// (rank = (degree, id)); every triangle is then counted exactly once
	// at its lowest-rank vertex.
	rank := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := g.Degree(uncertain.NodeID(order[a])), g.Degree(uncertain.NodeID(order[b]))
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	for r, v := range order {
		rank[v] = r
	}

	// Forward adjacency with probabilities.
	type arc struct {
		to uncertain.NodeID
		p  float64
	}
	fwd := make([][]arc, n)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.P <= 0 {
			continue
		}
		u, v := e.U, e.V
		if rank[u] > rank[v] {
			u, v = v, u
		}
		fwd[u] = append(fwd[u], arc{to: v, p: e.P})
	}

	var total float64
	mark := make([]float64, n) // probability of the (u, w) arc, 0 if absent
	for u := 0; u < n; u++ {
		for _, a := range fwd[u] {
			mark[a.to] = a.p
		}
		for _, a := range fwd[u] {
			for _, b := range fwd[a.to] {
				if pw := mark[b.to]; pw > 0 {
					total += a.p * b.p * pw
				}
			}
		}
		for _, a := range fwd[u] {
			mark[a.to] = 0
		}
	}
	return total
}

// Triangles estimates E[#triangles] by Monte Carlo; it exists to
// cross-validate the closed form and for callers that already pay for
// sampled worlds.
func (o Options) Triangles(g *uncertain.Graph) float64 {
	n := o.samples(500)
	counts := make([]float64, n)
	o.engine(n).ForEachWorld(g, func(i int, w *uncertain.World) {
		counts[i] = float64(worldTriangles(w))
	})
	var total float64
	for _, c := range counts {
		total += c
	}
	return total / float64(n)
}

// worldTriangles counts triangles in one deterministic world.
func worldTriangles(w *uncertain.World) int64 {
	n := w.NumNodes()
	adj := w.AdjacencyLists()
	rank := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := len(adj[order[a]]), len(adj[order[b]])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	for r, v := range order {
		rank[v] = r
	}
	fwd := make([][]uncertain.NodeID, n)
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			if rank[u] < rank[v] {
				fwd[u] = append(fwd[u], v)
			}
		}
	}
	marked := make([]bool, n)
	var total int64
	for u := 0; u < n; u++ {
		for _, v := range fwd[u] {
			marked[v] = true
		}
		for _, v := range fwd[u] {
			for _, x := range fwd[v] {
				if marked[x] {
					total++
				}
			}
		}
		for _, v := range fwd[u] {
			marked[v] = false
		}
	}
	return total
}
