package uncertain

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Version-2 sectioned binary format (see DESIGN.md §14).
//
// After the shared magic + version prefix the file is a sequence of
// framed sections:
//
//	id      uint32  little-endian fourcc
//	length  uint64  payload byte count
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload [length]byte
//
// Sections defined by this version:
//
//	META  uvarint n, uvarint m, probEnc byte (0 = q16 quantized,
//	      1 = exact float64). Must be the first section.
//	EDGE  the m edges sorted by (U,V), delta/varint coded: per edge,
//	      du = u - prevU as uvarint, then dv as uvarint where
//	      dv = v-u-1 when du > 0 (first edge of a new row) and
//	      dv = v-prevV-1 otherwise; prevU = prevV = 0 initially.
//	PROB  the m probabilities in edge order: uint16 q with p = q/65535
//	      under probEnc 0 (exactly 2m bytes), float64 bits under
//	      probEnc 1 (exactly 8m bytes).
//	END!  empty; terminates the section list. The stream must end
//	      immediately after it.
//
// Unknown section ids are skipped (their CRC is still verified), so future
// versions can add sections without breaking this reader; META must stay
// first so readers can size and validate everything that follows.
//
// The quantized probability column engages only when every probability
// survives the q16 round-trip bit-exactly (p == float64(q)/65535, sign of
// zero included); otherwise the writer falls back to the exact column, so
// decode(encode(g)) == g in every case.
const (
	secMETA uint32 = 0x4154454D // "META"
	secEDGE uint32 = 0x45474445 // "EDGE"
	secPROB uint32 = 0x424F5250 // "PROB"
	secEND  uint32 = 0x21444E45 // "END!"

	probEncQ16     byte = 0 // uint16 quantized, p = q/65535
	probEncFloat64 byte = 1 // exact float64 bits
)

// q16Max is the quantization denominator: probabilities are stored as
// q/65535 when exact.
const q16Max = 65535

// crcTable is the Castagnoli polynomial table shared by writer and reader.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// quantizeProb returns the q16 code for p and whether the round-trip is
// bit-exact (compared as bits, so -0 is not taken for +0).
func quantizeProb(p float64) (uint16, bool) {
	q := uint16(math.Round(p * q16Max))
	return q, math.Float64bits(float64(q)/q16Max) == math.Float64bits(p)
}

// Quantize16 snaps p to the nearest probability representable by the v2
// quantized column (a multiple of 1/65535, absolute error <= 1/131070).
// Generators that pre-quantize their probabilities through it get the
// 2-byte column — and files 3x+ smaller than TSV — instead of the exact
// 8-byte fallback.
func Quantize16(p float64) float64 {
	q, _ := quantizeProb(p)
	return float64(q) / q16Max
}

// writeSection frames one section: id, length, CRC-32C, payload.
func writeSection(w io.Writer, id uint32, payload []byte) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], id)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// V2Writer streams a version-2 file edge by edge, so generators can emit
// million-node graphs without materializing an edge slice or a *Graph.
// Edges must arrive in strictly increasing (U,V) order with canonical
// U < V endpoints; Close emits the buffered sections. The writer buffers
// roughly 11 bytes per edge (the varint-coded edge stream plus the raw
// probability column) — an order of magnitude less than a materialized
// graph.
type V2Writer struct {
	w io.Writer
	n int
	m int

	edgeBuf []byte // delta/varint-coded edge stream
	probs   []float64
	allQ16  bool

	prevU, prevV NodeID
	closed       bool
}

// NewV2Writer starts a version-2 stream over n vertices written to w.
// Nothing is written until Close; the caller owns w's lifetime.
func NewV2Writer(w io.Writer, n int) (*V2Writer, error) {
	if n < 0 || n > MaxFileNodes {
		return nil, fmt.Errorf("%w: %d nodes exceeds MaxFileNodes %d", ErrTooLarge, n, MaxFileNodes)
	}
	return &V2Writer{w: w, n: n, allQ16: true}, nil
}

// AddEdge appends one edge. Edges must be canonical (u < v, endpoints in
// range, p in [0,1]) and strictly increasing in (u,v) order.
//
// The delta state starts at the virtual edge (0,0), which sorts strictly
// before every canonical edge, so the first real edge needs no special
// case: the decoder starts from the same state.
func (vw *V2Writer) AddEdge(u, v NodeID, p float64) error {
	if vw.closed {
		return fmt.Errorf("uncertain: V2Writer already closed")
	}
	if u < 0 || v < 0 || int(u) >= vw.n || int(v) >= vw.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeOutOfRange, u, v, vw.n)
	}
	if u >= v {
		return fmt.Errorf("uncertain: v2 edges must be canonical u < v, got (%d,%d)", u, v)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%w: %v on (%d,%d)", ErrBadProbability, p, u, v)
	}
	if u < vw.prevU || (u == vw.prevU && v <= vw.prevV) {
		return fmt.Errorf("uncertain: v2 edges must be sorted, (%d,%d) after (%d,%d)", u, v, vw.prevU, vw.prevV)
	}
	du := uint64(u - vw.prevU)
	var dv uint64
	if du > 0 {
		dv = uint64(v - u - 1)
	} else {
		dv = uint64(v - vw.prevV - 1)
	}
	vw.edgeBuf = binary.AppendUvarint(vw.edgeBuf, du)
	vw.edgeBuf = binary.AppendUvarint(vw.edgeBuf, dv)
	if vw.allQ16 {
		if _, ok := quantizeProb(p); !ok {
			vw.allQ16 = false
		}
	}
	vw.probs = append(vw.probs, p)
	vw.prevU, vw.prevV = u, v
	vw.m++
	return nil
}

// Close emits the buffered sections and terminates the stream. It does not
// close the underlying writer.
func (vw *V2Writer) Close() error {
	if vw.closed {
		return nil
	}
	vw.closed = true
	bw := bufio.NewWriter(vw.w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], binaryVersionV2)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	probEnc := probEncQ16
	if !vw.allQ16 {
		probEnc = probEncFloat64
	}
	meta := binary.AppendUvarint(nil, uint64(vw.n))
	meta = binary.AppendUvarint(meta, uint64(vw.m))
	meta = append(meta, probEnc)
	if err := writeSection(bw, secMETA, meta); err != nil {
		return err
	}
	if err := writeSection(bw, secEDGE, vw.edgeBuf); err != nil {
		return err
	}
	var probs []byte
	if vw.allQ16 {
		probs = make([]byte, 2*len(vw.probs))
		for i, p := range vw.probs {
			q, _ := quantizeProb(p)
			binary.LittleEndian.PutUint16(probs[2*i:], q)
		}
	} else {
		probs = make([]byte, 8*len(vw.probs))
		for i, p := range vw.probs {
			binary.LittleEndian.PutUint64(probs[8*i:], math.Float64bits(p))
		}
	}
	if err := writeSection(bw, secPROB, probs); err != nil {
		return err
	}
	if err := writeSection(bw, secEND, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinaryV2 serializes g in the sectioned version-2 format. Graphs
// whose probabilities all survive 16-bit quantization exactly get the
// compact probability column; everything else round-trips bit-exactly
// through the float64 column.
func WriteBinaryV2(w io.Writer, g View) error {
	vw, err := NewV2Writer(w, g.NumNodes())
	if err != nil {
		return err
	}
	for _, e := range g.SortedEdges() {
		if err := vw.AddEdge(e.U, e.V, e.P); err != nil {
			return err
		}
	}
	return vw.Close()
}

// readSectionHeader reads one section frame header.
func readSectionHeader(br *bufio.Reader) (id uint32, length uint64, crc uint32, err error) {
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: truncated section header: %v", ErrBadFormat, err)
	}
	return binary.LittleEndian.Uint32(hdr[0:4]),
		binary.LittleEndian.Uint64(hdr[4:12]),
		binary.LittleEndian.Uint32(hdr[12:16]), nil
}

// readSectionPayload buffers and CRC-checks a known section's payload.
// maxLen guards the allocation against corrupt length fields.
func readSectionPayload(br *bufio.Reader, length uint64, crc uint32, maxLen uint64, what string) ([]byte, error) {
	if length > maxLen {
		return nil, fmt.Errorf("%w: %s section length %d exceeds limit %d", ErrBadFormat, what, length, maxLen)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated %s section: %v", ErrBadFormat, what, err)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("%w: %s section checksum mismatch (got %#x want %#x)", ErrBadFormat, what, got, crc)
	}
	return payload, nil
}

// skipSection streams an unknown section through the CRC without
// buffering it, preserving forward compatibility with future sections.
func skipSection(br *bufio.Reader, length uint64, crc uint32) error {
	h := crc32.New(crcTable)
	if _, err := io.CopyN(h, br, int64(length)); err != nil {
		return fmt.Errorf("%w: truncated section: %v", ErrBadFormat, err)
	}
	if got := h.Sum32(); got != crc {
		return fmt.Errorf("%w: section checksum mismatch (got %#x want %#x)", ErrBadFormat, got, crc)
	}
	return nil
}

// readV2Body parses the sectioned body after the magic/version prefix and
// returns the vertex count plus the decoded, validated edge slice (sorted,
// canonical, deduplicated by construction of the delta code).
func readV2Body(br *bufio.Reader) (int, []Edge, error) {
	var (
		n, m     int
		probEnc  byte
		edges    []Edge
		haveMeta bool
		haveEdge bool
		haveProb bool
	)
	for {
		id, length, crc, err := readSectionHeader(br)
		if err != nil {
			return 0, nil, err
		}
		if !haveMeta && id != secMETA {
			return 0, nil, fmt.Errorf("%w: first section %#x is not META", ErrBadFormat, id)
		}
		switch id {
		case secMETA:
			if haveMeta {
				return 0, nil, fmt.Errorf("%w: duplicate META section", ErrBadFormat)
			}
			payload, err := readSectionPayload(br, length, crc, 64, "META")
			if err != nil {
				return 0, nil, err
			}
			n, m, probEnc, err = parseMeta(payload)
			if err != nil {
				return 0, nil, err
			}
			haveMeta = true
		case secEDGE:
			if haveEdge {
				return 0, nil, fmt.Errorf("%w: duplicate EDGE section", ErrBadFormat)
			}
			// A valid encoding spends at most 2 maximal uvarints per edge.
			payload, err := readSectionPayload(br, length, crc, uint64(m)*20+16, "EDGE")
			if err != nil {
				return 0, nil, err
			}
			edges, err = decodeEdges(payload, n, m)
			if err != nil {
				return 0, nil, err
			}
			haveEdge = true
		case secPROB:
			if haveProb {
				return 0, nil, fmt.Errorf("%w: duplicate PROB section", ErrBadFormat)
			}
			if !haveEdge {
				return 0, nil, fmt.Errorf("%w: PROB section before EDGE", ErrBadFormat)
			}
			want := uint64(m) * 2
			if probEnc == probEncFloat64 {
				want = uint64(m) * 8
			}
			if length != want {
				return 0, nil, fmt.Errorf("%w: PROB section length %d, want %d", ErrBadFormat, length, want)
			}
			payload, err := readSectionPayload(br, length, crc, want, "PROB")
			if err != nil {
				return 0, nil, err
			}
			if err := decodeProbs(payload, probEnc, edges); err != nil {
				return 0, nil, err
			}
			haveProb = true
		case secEND:
			if length != 0 {
				return 0, nil, fmt.Errorf("%w: END! section with payload", ErrBadFormat)
			}
			if _, err := readSectionPayload(br, length, crc, 0, "END!"); err != nil {
				return 0, nil, err
			}
			if !haveEdge || !haveProb {
				return 0, nil, fmt.Errorf("%w: missing EDGE or PROB section", ErrBadFormat)
			}
			if err := requireEOF(br); err != nil {
				return 0, nil, err
			}
			return n, edges, nil
		default:
			if err := skipSection(br, length, crc); err != nil {
				return 0, nil, err
			}
		}
	}
}

// parseMeta decodes the META payload: n, m, probability encoding.
func parseMeta(payload []byte) (n, m int, probEnc byte, err error) {
	un, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: bad META node count", ErrBadFormat)
	}
	payload = payload[k:]
	um, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: bad META edge count", ErrBadFormat)
	}
	payload = payload[k:]
	if len(payload) != 1 {
		return 0, 0, 0, fmt.Errorf("%w: bad META length", ErrBadFormat)
	}
	probEnc = payload[0]
	if probEnc != probEncQ16 && probEnc != probEncFloat64 {
		return 0, 0, 0, fmt.Errorf("%w: unknown probability encoding %d", ErrBadFormat, probEnc)
	}
	if un > MaxFileNodes {
		return 0, 0, 0, fmt.Errorf("%w: node count %d exceeds limit", ErrBadFormat, un)
	}
	n = int(un)
	maxEdges := uint64(n) * uint64(n-1) / 2
	if um > maxEdges {
		return 0, 0, 0, fmt.Errorf("%w: %d edges impossible for %d nodes", ErrBadFormat, um, n)
	}
	return n, int(um), probEnc, nil
}

// decodeEdges decodes the delta/varint edge stream; probabilities are
// filled in by decodeProbs. The delta code makes the edges strictly
// increasing in (U,V) by construction, so sortedness, canonical u < v and
// absence of duplicates only need local checks.
func decodeEdges(payload []byte, n, m int) ([]Edge, error) {
	edges := make([]Edge, m)
	var prevU, prevV uint64
	pos := 0
	for i := 0; i < m; i++ {
		du, k := binary.Uvarint(payload[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: bad varint in edge %d", ErrBadFormat, i)
		}
		pos += k
		dv, k := binary.Uvarint(payload[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: bad varint in edge %d", ErrBadFormat, i)
		}
		pos += k
		u := prevU + du
		var v uint64
		if du > 0 {
			v = u + 1 + dv
		} else {
			v = prevV + 1 + dv
		}
		if u >= uint64(n) || v >= uint64(n) {
			return nil, fmt.Errorf("%w: edge %d endpoints (%d,%d) out of range for n=%d", ErrBadFormat, i, u, v, n)
		}
		edges[i] = Edge{U: NodeID(u), V: NodeID(v)}
		prevU, prevV = u, v
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes in EDGE section", ErrBadFormat, len(payload)-pos)
	}
	return edges, nil
}

// decodeProbs fills the probability column into edges.
func decodeProbs(payload []byte, probEnc byte, edges []Edge) error {
	switch probEnc {
	case probEncQ16:
		for i := range edges {
			q := binary.LittleEndian.Uint16(payload[2*i:])
			edges[i].P = float64(q) / q16Max
		}
	case probEncFloat64:
		for i := range edges {
			p := math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
			if math.IsNaN(p) || p < 0 || p > 1 {
				return fmt.Errorf("%w: edge %d probability %v outside [0,1]", ErrBadFormat, i, p)
			}
			edges[i].P = p
		}
	}
	return nil
}

// ReadCSR parses a binary graph (either version) directly into the packed
// CSR view, skipping the mutable graph's adjacency slices and edge map.
// This is the fast path for the read-only engines: decode straight to the
// layout they run on.
func ReadCSR(r io.Reader) (*CSR, error) {
	return readCSRFrom(bufio.NewReader(r))
}

// SaveBinaryV2File writes g to path in the sectioned version-2 format.
func SaveBinaryV2File(path string, g View) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinaryV2(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCSR reads an uncertain graph from path straight into a CSR view,
// auto-detecting the format like LoadFile: binary containers decode
// directly (v2 without ever building a *Graph), TSV parses through the
// mutable graph first.
func LoadCSR(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(4)
	if err == nil && len(head) == 4 && binary.LittleEndian.Uint32(head) == binaryMagic {
		return readCSRFrom(br)
	}
	g, err := ReadTSV(br)
	if err != nil {
		return nil, err
	}
	return NewCSR(g), nil
}

// readCSRFrom is ReadCSR over an existing bufio.Reader (no double
// buffering when LoadCSR has already peeked the magic).
func readCSRFrom(br *bufio.Reader) (*CSR, error) {
	version, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	switch version {
	case binaryVersion:
		g, err := readV1Body(br)
		if err != nil {
			return nil, err
		}
		return NewCSR(g), nil
	case binaryVersionV2:
		n, edges, err := readV2Body(br)
		if err != nil {
			return nil, err
		}
		return newCSRFromEdges(n, edges), nil
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
}
