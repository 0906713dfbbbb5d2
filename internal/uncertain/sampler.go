package uncertain

import (
	"math"
)

// mask53 extracts the low 53 bits of a PCG draw — exactly the bits
// math/rand/v2 turns into a Float64 (float64(u<<11>>11) / 2^53).
const mask53 = 1<<53 - 1

// threshAlways marks an edge with p >= 1: included without consuming
// randomness. A threshold of 0 marks p <= 0: excluded without consuming
// randomness. Everything in between is a draw.
const threshAlways = ^uint64(0)

// WorldSampler is the allocation-free possible-world sampler for one graph
// snapshot. It precomputes, per edge, the integer threshold t = ceil(p*2^53)
// such that
//
//	rand.Float64() < p  ⇔  pcg.Uint64() & mask53 < t
//
// so SampleInto draws the bit-for-bit identical world to Graph.SampleWorld
// from the same PCG state, without the rand.Rand wrapper's interface
// dispatch, float division, or per-world allocations.
//
// A sampler is an immutable snapshot of the graph's probabilities: it is
// safe for concurrent use by many workers, and it is invalidated (rebuilt
// by Graph.Sampler) when the graph's edge set or probabilities change.
type WorldSampler struct {
	src     View
	core    *edgeCore
	version uint64
	thresh  []uint64 // per edge: 0 = never, threshAlways = certain, else draw
}

// newWorldSampler builds the sampler snapshot for the view's current state.
func newWorldSampler(src View) *WorldSampler {
	core := src.dataCore()
	s := &WorldSampler{src: src, core: core, version: src.Version(), thresh: make([]uint64, len(core.edges))}
	for i, e := range core.edges {
		switch {
		case e.P >= 1:
			s.thresh[i] = threshAlways
		case e.P <= 0:
			s.thresh[i] = 0
		default:
			// p*2^53 is an exact power-of-two scaling, so the ceiling is the
			// exact integer threshold for the Float64 comparison above.
			s.thresh[i] = uint64(math.Ceil(e.P * (1 << 53)))
		}
	}
	return s
}

// NumEdges returns the edge count the sampler was built for.
func (s *WorldSampler) NumEdges() int { return len(s.core.edges) }

// Sampler returns the world sampler snapshot for g's current state,
// building and caching it on first use and rebuilding it after any
// AddEdge/SetProb. The returned sampler is immutable and safe for
// concurrent use; callers must not mutate the graph while sampling.
func (g *Graph) Sampler() *WorldSampler {
	if s := g.sampler.Load(); s != nil && s.version == g.version {
		return s
	}
	s := newWorldSampler(g)
	g.sampler.Store(s)
	return s
}
