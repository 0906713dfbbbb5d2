package uncertain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// v1Bytes hand-encodes g in the read-only version-1 layout — magic,
// version, n and m as uint32, then (u uint32, v uint32, p float64 bits)
// per edge in sorted order — the exact bytes earlier builds wrote. The
// v1 reader tests decode it; nothing in the program writes v1 any more.
func v1Bytes(g View) []byte {
	var buf bytes.Buffer
	writeU32(&buf, binaryMagic, binaryVersion, uint32(g.NumNodes()), uint32(g.NumEdges()))
	for _, e := range g.SortedEdges() {
		bits := math.Float64bits(e.P)
		writeU32(&buf, uint32(e.U), uint32(e.V), uint32(bits), uint32(bits>>32))
	}
	return buf.Bytes()
}

// writeU32 appends little-endian uint32 words to buf.
func writeU32(buf *bytes.Buffer, words ...uint32) {
	for _, v := range words {
		buf.Write(binary.LittleEndian.AppendUint32(nil, v))
	}
}

// legacyV1Graph is the graph stored in testdata/legacy_v1.ug, a file
// written by the retired v1 writer: probabilities off the q16 grid, a
// certain edge, a near-zero edge and an isolated vertex.
func legacyV1Graph(t *testing.T) *Graph {
	return mustGraph(t, 6, Edge{0, 1, 0.5}, Edge{0, 3, 1}, Edge{1, 2, 0.123456789},
		Edge{2, 5, 1e-9}, Edge{3, 4, 0.7071067811865476})
}

// TestLegacyV1FileDecodes holds every reader to files earlier builds
// wrote: ReadBinary, ReadCSR and LoadFile must decode the committed v1
// fixture to the graph it was written from, and v1Bytes must reproduce
// the fixture byte for byte (so the hand-built bytes the other v1 tests
// use are the real layout).
func TestLegacyV1FileDecodes(t *testing.T) {
	const path = "testdata/legacy_v1.ug"
	want := legacyV1Graph(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1Bytes(want), data) {
		t.Fatal("v1Bytes does not reproduce the legacy v1 fixture")
	}
	g, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(g) {
		t.Fatal("ReadBinary decoded the legacy v1 fixture to a different graph")
	}
	c, err := ReadCSR(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(back) {
		t.Fatal("ReadCSR decoded the legacy v1 fixture to a different graph")
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(fromFile) {
		t.Fatal("LoadFile decoded the legacy v1 fixture to a different graph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := mustGraph(t, 5, Edge{0, 1, 0.5}, Edge{2, 3, 0.125}, Edge{0, 4, 1}, Edge{1, 4, 0})
	h, err := ReadBinary(bytes.NewReader(v1Bytes(g)))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 2, 0.75})
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, v1Bytes(g), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("file round trip changed the graph")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     {1, 2, 3},
		"bad magic": append([]byte{0, 0, 0, 0}, make([]byte, 12)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("want ErrBadFormat, got %v", err)
			}
		})
	}
}

func TestBinaryRejectsBadVersion(t *testing.T) {
	data := v1Bytes(mustGraph(t, 2, Edge{0, 1, 0.5}))
	data[4] = 99 // corrupt version
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestBinaryRejectsTruncatedEdges(t *testing.T) {
	data := v1Bytes(mustGraph(t, 3, Edge{0, 1, 0.5}, Edge{1, 2, 0.5}))
	data = data[:len(data)-7] // cut into the last edge
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated edge data should error")
	}
}

func TestBinaryRejectsImpossibleCounts(t *testing.T) {
	// Header says 2 nodes, 9 edges: impossible for a simple graph.
	data := v1Bytes(mustGraph(t, 2, Edge{0, 1, 0.5}))
	data[12] = 9 // edge count low byte
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

// TestWriteBinaryRejectsOversizedGraph locks the writer-side count guard:
// a graph with more than MaxFileNodes vertices would produce a file
// ReadBinary refuses, so the writer must refuse up front instead. The
// graph is built as a bare struct literal — the guard only needs the
// counts, and New would allocate adjacency slices for 16M+ vertices.
func TestWriteBinaryRejectsOversizedGraph(t *testing.T) {
	g := &Graph{edgeCore: edgeCore{n: MaxFileNodes + 1}}
	if err := WriteBinaryV2(&bytes.Buffer{}, g); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("WriteBinaryV2 on %d nodes: want ErrTooLarge, got %v", MaxFileNodes+1, err)
	}
	if _, err := NewV2Writer(&bytes.Buffer{}, MaxFileNodes+1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("NewV2Writer on %d nodes: want ErrTooLarge, got %v", MaxFileNodes+1, err)
	}
}

// TestBinaryRejectsTrailingGarbage locks the clean-EOF contract: the v1
// reader used to stop after m edges and silently ignore whatever followed,
// so a mis-framed or corrupt-header file could parse as a smaller graph.
func TestBinaryRejectsTrailingGarbage(t *testing.T) {
	data := append(v1Bytes(mustGraph(t, 3, Edge{0, 1, 0.5}, Edge{1, 2, 0.25})), 0xAB)
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing byte: want ErrBadFormat, got %v", err)
	}
}

// TestBinaryRejectsEndpointBeyondHeaderN locks the endpoint guard: the v1
// reader used to compare endpoints against the global MaxFileNodes cap
// instead of the header's node count, so an endpoint in (n, MaxFileNodes]
// fell through to AddEdge and surfaced as a construction error rather
// than ErrBadFormat.
func TestBinaryRejectsEndpointBeyondHeaderN(t *testing.T) {
	// Hand-build a v1 file: n=3, m=1, edge (1, 5): endpoint 5 >= n.
	var buf bytes.Buffer
	writeU32(&buf, binaryMagic, binaryVersion, 3, 1)
	writeU32(&buf, 1, 5, 0, 0) // p = 0.0
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("endpoint 5 with n=3: want ErrBadFormat, got %v", err)
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 2 + rng.IntN(40)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u := NodeID(rng.IntN(n))
			v := NodeID(rng.IntN(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v, rng.Float64())
		}
		h, err := ReadBinary(bytes.NewReader(v1Bytes(g)))
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanTSV(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := New(500)
	for g.NumEdges() < 2000 {
		u := NodeID(rng.IntN(500))
		v := NodeID(rng.IntN(500))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, rng.Float64())
	}
	var tsv, bin bytes.Buffer
	if err := WriteTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryV2(&bin, g); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= tsv.Len() {
		t.Fatalf("binary (%d bytes) should beat TSV (%d bytes)", bin.Len(), tsv.Len())
	}
}

func TestLoadFileAutoDetectsBinary(t *testing.T) {
	g := mustGraph(t, 4, Edge{0, 1, 0.5}, Edge{2, 3, 0.25})
	dir := t.TempDir()
	binPath := filepath.Join(dir, "g.bin")
	tsvPath := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(binPath, v1Bytes(g), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(tsvPath, g); err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	fromTSV, err := LoadFile(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fromBin.Equal(g) || !fromTSV.Equal(g) {
		t.Fatal("auto-detected loads should match the original")
	}
}
