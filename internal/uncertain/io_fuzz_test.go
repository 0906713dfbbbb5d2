package uncertain

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedV2 builds a tiny valid v2 file for the corpus, plus mutants the
// fuzzer can grow from: flipped checksum, truncated section, bad varint,
// trailing garbage.
func fuzzSeedV2() ([]byte, [][]byte) {
	g := New(3)
	g.MustAddEdge(0, 1, Quantize16(0.5))
	g.MustAddEdge(1, 2, Quantize16(0.25))
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		panic(err)
	}
	valid := buf.Bytes()
	flipCRC := append([]byte{}, valid...)
	flipCRC[8+12] ^= 1 // META section CRC field
	truncated := append([]byte{}, valid[:len(valid)-9]...)
	badVarint := append([]byte{}, valid...)
	badVarint[8+16] = 0x80 // META payload now starts with an unterminated uvarint
	trailing := append(append([]byte{}, valid...), 0xCC)
	return valid, [][]byte{flipCRC, truncated, badVarint, trailing}
}

// FuzzGraphRoundTrip hardens all three serialization formats from two
// sides: arbitrary bytes fed to the binary readers (both the *Graph and
// the CSR decoder) must fail cleanly with ErrBadFormat — never panic —
// or yield an internally consistent graph, and any graph constructed from
// the fuzzed bytes must survive TSV and v2 round trips and a decode of its
// hand-built legacy v1 bytes unchanged, including cross-format trips
// (TSV -> v1 -> v2), since LoadFile auto-detects the format and all paths
// must agree on the graph.
func FuzzGraphRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 128, 1, 2, 255, 0, 2, 0})
	f.Add([]byte("GRGU\x01\x00\x00\x00"))
	f.Add([]byte{0x47, 0x52, 0x47, 0x55, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{7}, 64))
	f.Add(v1Bytes(mustGraph(f, 3, Edge{0, 1, 0.5}, Edge{1, 2, 0.123456789})))
	validV2, mutants := fuzzSeedV2()
	f.Add(validV2)
	for _, m := range mutants {
		f.Add(m)
	}
	// A v2 header with a huge claimed section length: the reader must
	// bound its allocation, not trust the length field.
	huge := make([]byte, 24)
	binary.LittleEndian.PutUint32(huge[0:4], binaryMagic)
	binary.LittleEndian.PutUint32(huge[4:8], binaryVersionV2)
	binary.LittleEndian.PutUint32(huge[8:12], secMETA)
	binary.LittleEndian.PutUint64(huge[12:20], 1<<60)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Side 1: the binary readers on raw fuzz input. Both decoders must
		// agree on accept/reject, and accepted graphs must be consistent.
		g1, err1 := ReadBinary(bytes.NewReader(data))
		c1, errCSR := ReadCSR(bytes.NewReader(data))
		if (err1 == nil) != (errCSR == nil) {
			t.Fatalf("ReadBinary err=%v but ReadCSR err=%v", err1, errCSR)
		}
		if err1 == nil {
			checkConsistent(t, g1)
			back, err := c1.Materialize()
			if err != nil {
				t.Fatalf("Materialize after accepted decode: %v", err)
			}
			if !g1.Equal(back) {
				t.Fatal("ReadBinary and ReadCSR disagree on the decoded graph")
			}
		}

		// Side 2: build a graph from the bytes and round-trip it.
		if len(data) == 0 {
			return
		}
		n := int(data[0])%64 + 1
		g := New(n)
		for i := 1; i+2 < len(data); i += 3 {
			u := NodeID(int(data[i]) % n)
			v := NodeID(int(data[i+1]) % n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			// float64(byte)/255 is exact in TSV and v1, and survives v2's
			// float64 escape column; bytes divisible by 255's structure do
			// not generally land on the q16 grid, so both PROB encodings
			// get exercised across inputs.
			g.MustAddEdge(u, v, float64(data[i+2])/255)
		}

		var tsv bytes.Buffer
		if err := WriteTSV(&tsv, g); err != nil {
			t.Fatalf("WriteTSV: %v", err)
		}
		fromTSV, err := ReadTSV(&tsv)
		if err != nil {
			t.Fatalf("ReadTSV after write: %v", err)
		}
		if !g.Equal(fromTSV) {
			t.Fatal("TSV round trip changed the graph")
		}

		fromBin, err := ReadBinary(bytes.NewReader(v1Bytes(fromTSV)))
		if err != nil {
			t.Fatalf("ReadBinary(v1): %v", err)
		}
		if !g.Equal(fromBin) {
			t.Fatal("TSV->v1 decode changed the graph")
		}

		var v2 bytes.Buffer
		if err := WriteBinaryV2(&v2, fromBin); err != nil {
			t.Fatalf("WriteBinaryV2: %v", err)
		}
		v2bytes := v2.Bytes()
		fromV2, err := ReadBinary(bytes.NewReader(v2bytes))
		if err != nil {
			t.Fatalf("ReadBinary(v2) after write: %v", err)
		}
		if !g.Equal(fromV2) {
			t.Fatal("v1->v2 round trip changed the graph")
		}
		fromV2CSR, err := ReadCSR(bytes.NewReader(v2bytes))
		if err != nil {
			t.Fatalf("ReadCSR(v2) after write: %v", err)
		}
		back, err := fromV2CSR.Materialize()
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		if !g.Equal(back) {
			t.Fatal("v2 CSR decode changed the graph")
		}
	})
}

// checkConsistent asserts the structural invariants every successfully
// parsed graph must satisfy.
func checkConsistent(t *testing.T, g *Graph) {
	t.Helper()
	if g.NumNodes() < 0 || g.NumEdges() < 0 {
		t.Fatalf("negative sizes: nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.U >= e.V || e.P < 0 || e.P > 1 {
			t.Fatalf("invalid edge %+v", e)
		}
		if int(e.V) >= g.NumNodes() {
			t.Fatalf("edge %+v beyond node count %d", e, g.NumNodes())
		}
	}
}
