package uncertain

import (
	"bytes"
	"io"
	"math/rand/v2"
	"sync"
	"testing"
)

// The format benchmarks measure, on one shared 100k-edge graph, what each
// container format costs to decode and how many bytes it occupies at rest.
// The probabilities lie on the q16 grid (the profile genug's discrete and
// quantized pipelines produce), so the v2 compact probability column
// engages — the configuration the ≥5x-decode / ≥3x-size gates in
// scripts/check.sh are written against. Every benchmark reports
// bytes_on_disk so BENCH_format.json tracks size alongside speed.
const (
	fmtBenchNodes = 20_000
	fmtBenchEdges = 100_000
)

var fmtBench struct {
	once        sync.Once
	tsv, v1, v2 []byte
}

func fmtBenchData(tb testing.TB) (tsv, v1, v2 []byte) {
	tb.Helper()
	fmtBench.once.Do(func() {
		g := randomV2Graph(tb, 0xF0, fmtBenchNodes, fmtBenchEdges, true)
		var bTSV, bV2 bytes.Buffer
		if err := WriteTSV(&bTSV, g); err != nil {
			tb.Fatal(err)
		}
		if err := WriteBinaryV2(&bV2, g); err != nil {
			tb.Fatal(err)
		}
		fmtBench.tsv, fmtBench.v1, fmtBench.v2 = bTSV.Bytes(), v1Bytes(g), bV2.Bytes()
	})
	if fmtBench.tsv == nil {
		tb.Fatal("format benchmark corpus failed to build")
	}
	return fmtBench.tsv, fmtBench.v1, fmtBench.v2
}

// BenchmarkFormatDecode decodes the same graph from each format. The
// tsv/v1/v2 cases land on the slice-backed *Graph; v2-csr decodes straight
// into the packed read-only view.
func BenchmarkFormatDecode(b *testing.B) {
	tsv, v1, v2 := fmtBenchData(b)
	cases := []struct {
		name   string
		data   []byte
		decode func(r io.Reader) (View, error)
	}{
		{"tsv", tsv, func(r io.Reader) (View, error) { return ReadTSV(r) }},
		{"v1", v1, func(r io.Reader) (View, error) { return ReadBinary(r) }},
		{"v2", v2, func(r io.Reader) (View, error) { return ReadBinary(r) }},
		{"v2-csr", v2, func(r io.Reader) (View, error) { return ReadCSR(r) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(float64(len(c.data)), "bytes_on_disk")
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				g, err := c.decode(bytes.NewReader(c.data))
				if err != nil {
					b.Fatal(err)
				}
				if g.NumEdges() != fmtBenchEdges {
					b.Fatalf("decoded %d edges, want %d", g.NumEdges(), fmtBenchEdges)
				}
			}
		})
	}
}

// BenchmarkFormatSampleWorld draws possible worlds from a freshly decoded
// v2 graph through both representations: the slice-backed graph and the
// CSR view. Equal numbers here are the perf half of the bit-identity
// claim — the packed view costs nothing on the sampling hot path.
func BenchmarkFormatSampleWorld(b *testing.B) {
	_, _, v2 := fmtBenchData(b)
	g, err := ReadBinary(bytes.NewReader(v2))
	if err != nil {
		b.Fatal(err)
	}
	c, err := ReadCSR(bytes.NewReader(v2))
	if err != nil {
		b.Fatal(err)
	}
	for _, src := range []struct {
		name string
		s    *WorldSampler
	}{{"graph", g.Sampler()}, {"csr", c.Sampler()}} {
		b.Run(src.name, func(b *testing.B) {
			var w World
			var pcg rand.PCG
			src.s.SampleInto(&w, &pcg) // warm the bitset
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pcg.Seed(0xBEEF, uint64(i))
				src.s.SampleInto(&w, &pcg)
			}
		})
	}
}
