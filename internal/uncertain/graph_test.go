package uncertain

import (
	"errors"
	"math"
	"sort"
	"testing"
)

func mustGraph(t testing.TB, n int, edges ...Edge) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatalf("AddEdge(%d,%d,%v): %v", e.U, e.V, e.P, err)
		}
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if New(-5).NumNodes() != 0 {
		t.Fatal("negative n should clamp to 0")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    NodeID
		p       float64
		wantErr error
	}{
		{"self loop", 1, 1, 0.5, ErrSelfLoop},
		{"u out of range", -1, 0, 0.5, ErrNodeOutOfRange},
		{"v out of range", 0, 3, 0.5, ErrNodeOutOfRange},
		{"negative prob", 0, 1, -0.1, ErrBadProbability},
		{"prob above one", 0, 1, 1.1, ErrBadProbability},
		{"NaN prob", 0, 1, math.NaN(), ErrBadProbability},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.u, tt.v, tt.p); !errors.Is(err, tt.wantErr) {
				t.Fatalf("AddEdge = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if g.NumEdges() != 0 {
		t.Fatal("failed AddEdge calls must not mutate the graph")
	}
}

func TestAddEdgeDuplicate(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 1, 0.5})
	if err := g.AddEdge(0, 1, 0.3); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate same order: %v", err)
	}
	if err := g.AddEdge(1, 0, 0.3); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate reversed order: %v", err)
	}
}

func TestEdgeBoundaryProbabilities(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 1, 0); err != nil {
		t.Fatalf("p=0 should be legal: %v", err)
	}
	g2 := New(2)
	if err := g2.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("p=1 should be legal: %v", err)
	}
}

func TestEdgeCanonicalOrder(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(3, 1, 0.7); err != nil {
		t.Fatal(err)
	}
	e := g.Edge(0)
	if e.U != 1 || e.V != 3 {
		t.Fatalf("edge stored as (%d,%d), want canonical (1,3)", e.U, e.V)
	}
}

func TestLookups(t *testing.T) {
	g := mustGraph(t, 4, Edge{0, 1, 0.5}, Edge{1, 2, 0.25})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge(0,2) should be false")
	}
	if got := g.EdgeIndex(2, 1); got != 1 {
		t.Fatalf("EdgeIndex(2,1) = %d, want 1", got)
	}
	if got := g.EdgeIndex(0, 3); got != -1 {
		t.Fatalf("EdgeIndex missing = %d, want -1", got)
	}
	p, err := g.Prob(1, 2)
	if err != nil || p != 0.25 {
		t.Fatalf("Prob(1,2) = %v, %v", p, err)
	}
	if _, err := g.Prob(0, 3); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("Prob missing edge: %v", err)
	}
}

func TestSetProb(t *testing.T) {
	g := mustGraph(t, 2, Edge{0, 1, 0.5})
	if err := g.SetProb(0, 0.9); err != nil {
		t.Fatal(err)
	}
	if p, _ := g.Prob(0, 1); p != 0.9 {
		t.Fatalf("Prob after SetProb = %v, want 0.9", p)
	}
	if err := g.SetProb(5, 0.1); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("SetProb bad index: %v", err)
	}
	if err := g.SetProb(0, 2); !errors.Is(err, ErrBadProbability) {
		t.Fatalf("SetProb bad prob: %v", err)
	}
	if err := g.SetProb(0, math.NaN()); !errors.Is(err, ErrBadProbability) {
		t.Fatalf("SetProb NaN: %v", err)
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := mustGraph(t, 4, Edge{0, 1, 0.5}, Edge{0, 2, 0.25}, Edge{0, 3, 1})
	if g.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d, want 3", g.Degree(0))
	}
	if g.Degree(3) != 1 {
		t.Fatalf("Degree(3) = %d, want 1", g.Degree(3))
	}
	if got := g.ExpectedDegree(0); math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("ExpectedDegree(0) = %v, want 1.75", got)
	}
	nbrs := g.Neighbors(0, nil)
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	if len(nbrs) != 3 || nbrs[0] != 1 || nbrs[1] != 2 || nbrs[2] != 3 {
		t.Fatalf("Neighbors(0) = %v", nbrs)
	}
	probs := g.IncidentProbs(0, nil)
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1.75) > 1e-12 {
		t.Fatalf("IncidentProbs sum = %v, want 1.75", sum)
	}
	idx := g.IncidentEdges(3, nil)
	if len(idx) != 1 || idx[0] != 2 {
		t.Fatalf("IncidentEdges(3) = %v", idx)
	}
}

func TestNeighborsAppendsToBuffer(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 1, 0.5})
	buf := []NodeID{99}
	buf = g.Neighbors(0, buf)
	if len(buf) != 2 || buf[0] != 99 || buf[1] != 1 {
		t.Fatalf("Neighbors should append, got %v", buf)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 1, 0.5}, Edge{1, 2, 0.25})
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone should equal original")
	}
	if err := c.SetProb(0, 0.9); err != nil {
		t.Fatal(err)
	}
	if p, _ := g.Prob(0, 1); p != 0.5 {
		t.Fatal("mutating clone leaked into original")
	}
	if err := c.AddEdge(0, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Fatal("adding to clone leaked into original")
	}
}

func TestEqual(t *testing.T) {
	a := mustGraph(t, 3, Edge{0, 1, 0.5})
	b := mustGraph(t, 3, Edge{1, 0, 0.5})
	if !a.Equal(b) {
		t.Fatal("graphs with same edges should be equal regardless of insertion order")
	}
	c := mustGraph(t, 3, Edge{0, 1, 0.6})
	if a.Equal(c) {
		t.Fatal("different probability should break equality")
	}
	d := mustGraph(t, 4, Edge{0, 1, 0.5})
	if a.Equal(d) {
		t.Fatal("different node count should break equality")
	}
	e := mustGraph(t, 3, Edge{0, 2, 0.5})
	if a.Equal(e) {
		t.Fatal("different edge set should break equality")
	}
}

func TestSortedEdges(t *testing.T) {
	g := mustGraph(t, 4, Edge{2, 3, 0.1}, Edge{0, 1, 0.2}, Edge{0, 3, 0.3})
	es := g.SortedEdges()
	want := []Edge{{0, 1, 0.2}, {0, 3, 0.3}, {2, 3, 0.1}}
	for i, e := range es {
		if e != want[i] {
			t.Fatalf("SortedEdges[%d] = %v, want %v", i, e, want[i])
		}
	}
}

func TestMustAddEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddEdge should panic on invalid input")
		}
	}()
	New(2).MustAddEdge(0, 0, 0.5)
}

func TestStringSummary(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 1, 0.5})
	if s := g.String(); s == "" {
		t.Fatal("String should not be empty")
	}
}
