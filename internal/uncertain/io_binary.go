package uncertain

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary container: every binary graph file starts with the same two
// little-endian words — magic then version — followed by a version-specific
// body.
//
// Version 1 body (read-only, kept so files, spools and checkpoints written
// by earlier builds still load): node count and edge count as uint32, then
// (u uint32, v uint32, p float64bits) triples in sorted edge order.
//
// Version 2 body: the sectioned format of io_v2.go — length-prefixed,
// checksummed sections carrying delta/varint-coded edges and a quantized
// probability column. It is the only format the writers emit. See
// DESIGN.md §14.
const (
	binaryMagic     uint32 = 0x55475247 // "UGRG"
	binaryVersion   uint32 = 1
	binaryVersionV2 uint32 = 2
)

// ErrTooLarge is returned by the binary writers when a graph has more than
// MaxFileNodes vertices: the readers refuse such headers, so writing them
// would produce files nothing can load back.
var ErrTooLarge = errors.New("uncertain: graph too large for binary format")

// readBinaryHeader consumes the shared magic + version prefix and returns
// the version word.
func readBinaryHeader(br *bufio.Reader) (uint32, error) {
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return 0, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrBadFormat, magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return 0, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
	}
	return version, nil
}

// requireEOF verifies the stream ends exactly where the format says it
// should: trailing bytes mean a corrupt or mis-framed file, not a graph.
func requireEOF(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing data after graph body", ErrBadFormat)
	} else if err != io.EOF {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return nil
}

// ReadBinary parses the binary container — a legacy v1 file or one written
// by WriteBinaryV2 — dispatching on the version word and validating every
// edge. The stream must end cleanly at the end of the graph body; trailing
// bytes are ErrBadFormat.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	version, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	switch version {
	case binaryVersion:
		return readV1Body(br)
	case binaryVersionV2:
		n, edges, err := readV2Body(br)
		if err != nil {
			return nil, err
		}
		return FromEdges(n, edges)
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
}

// readV1Body parses the version-1 body after the magic/version prefix.
func readV1Body(br *bufio.Reader) (*Graph, error) {
	var header [2]uint32
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
		}
	}
	n, m := int(header[0]), int(header[1])
	if n > MaxFileNodes {
		return nil, fmt.Errorf("%w: node count %d exceeds limit", ErrBadFormat, n)
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		return nil, fmt.Errorf("%w: %d edges impossible for %d nodes", ErrBadFormat, m, n)
	}
	g := New(n)
	for i := 0; i < m; i++ {
		var u, v uint32
		var pBits uint64
		if err := binary.Read(br, binary.LittleEndian, &u); err != nil {
			return nil, fmt.Errorf("%w: truncated edge %d: %v", ErrBadFormat, i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("%w: truncated edge %d: %v", ErrBadFormat, i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &pBits); err != nil {
			return nil, fmt.Errorf("%w: truncated edge %d: %v", ErrBadFormat, i, err)
		}
		// Validate against the header's node count, not the global cap:
		// any endpoint >= n can never be a vertex of this graph, and the
		// check also keeps NodeID conversion below from going negative.
		if u >= uint32(n) || v >= uint32(n) {
			return nil, fmt.Errorf("%w: edge %d endpoints (%d,%d) out of range for n=%d", ErrBadFormat, i, u, v, n)
		}
		if err := g.AddEdge(NodeID(u), NodeID(v), math.Float64frombits(pBits)); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	if err := requireEOF(br); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadBinaryFile reads a binary graph (either version) from path.
func LoadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
