package uncertain

import (
	"math/rand/v2"
	"testing"
)

// mixedGraph covers every per-edge case of the threshold kernel:
// impossible (p=0), certain (p=1), high-probability draws, and a run of
// low-probability edges sharing one p.
func mixedGraph() *Graph {
	g := New(40)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 0.8)
	g.MustAddEdge(3, 4, 0.5)
	for i := 0; i < 20; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+20), 0.05)
	}
	for i := 5; i < 15; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 0.6)
	}
	return g
}

// TestSamplerMatchesSampleWorld pins the determinism contract: from the
// same PCG state, SampleInto draws the bit-for-bit identical world to
// SampleWorld through the rand.Rand wrapper — one draw per edge with
// 0 < p < 1, in edge-index order.
func TestSamplerMatchesSampleWorld(t *testing.T) {
	g := mixedGraph()
	s := g.Sampler()
	var w World
	var pcg rand.PCG
	for i := uint64(0); i < 200; i++ {
		pcg.Seed(42, i)
		s.SampleInto(&w, &pcg)
		want := g.SampleWorld(rand.New(rand.NewPCG(42, i)))
		if w.NumEdges() != want.NumEdges() {
			t.Fatalf("seed stream %d: %d edges, SampleWorld drew %d", i, w.NumEdges(), want.NumEdges())
		}
		for j := 0; j < g.NumEdges(); j++ {
			if w.Present(j) != want.Present(j) {
				t.Fatalf("seed stream %d: edge %d presence %v, SampleWorld drew %v",
					i, j, w.Present(j), want.Present(j))
			}
		}
	}
}

// TestSamplerInvalidation: mutating the graph must rebuild the cached
// sampler so stale thresholds are never used.
func TestSamplerInvalidation(t *testing.T) {
	g := mixedGraph()
	s1 := g.Sampler()
	if g.Sampler() != s1 {
		t.Fatal("unchanged graph should reuse the cached sampler")
	}
	if err := g.SetProb(2, 0.01); err != nil {
		t.Fatal(err)
	}
	s2 := g.Sampler()
	if s2 == s1 {
		t.Fatal("SetProb must invalidate the cached sampler")
	}
	var w World
	var pcg rand.PCG
	pcg.Seed(7, 7)
	s2.SampleInto(&w, &pcg)
	want := g.SampleWorld(rand.New(rand.NewPCG(7, 7)))
	for j := 0; j < g.NumEdges(); j++ {
		if w.Present(j) != want.Present(j) {
			t.Fatalf("rebuilt sampler disagrees with SampleWorld at edge %d", j)
		}
	}
}

// TestSampleIntoReusesStorage: repeated sampling into one world must not
// allocate once the bitset has grown.
func TestSampleIntoReusesStorage(t *testing.T) {
	g := mixedGraph()
	s := g.Sampler()
	var w World
	var pcg rand.PCG
	pcg.Seed(1, 1)
	s.SampleInto(&w, &pcg) // warm: allocate the bitset
	allocs := testing.AllocsPerRun(100, func() {
		pcg.Seed(1, 2)
		s.SampleInto(&w, &pcg)
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocated %v times per world on the steady state", allocs)
	}
}
