package privacy_test

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"chameleon/internal/gen"
	"chameleon/internal/privacy"
	"chameleon/internal/testkit"
	"chameleon/internal/uncertain"
)

// maxRelErr is the error contract of the binned privacy.Commonness
// against the all-pairs oracle.
const maxRelErr = 1e-5

// commonnessCase is one input of the error contract: values with the
// kernel bandwidth to score them at.
type commonnessCase struct {
	name   string
	values []float64
	theta  float64
	// graph marks expected-degree profiles whose exclusion set must match.
	graph bool
}

// graphCase scores a graph's expected degrees at the bandwidth
// VertexUniqueness picks.
func graphCase(name string, g uncertain.View) commonnessCase {
	theta := g.DegreeStdDev()
	if theta <= 0 {
		theta = 1
	}
	return commonnessCase{name: name, values: g.ExpectedDegrees(), theta: theta, graph: true}
}

func commonnessCases(t *testing.T) []commonnessCase {
	var cases []commonnessCase
	for _, cg := range testkit.Corpus() {
		cases = append(cases, graphCase("corpus/"+cg.Name, cg.G))
	}
	profiles := map[string]gen.ProbAssigner{
		"uniform": gen.UniformProbs(0.05, 0.95),
		// The genug "discrete" profile: five probability levels, so
		// expected degrees repeat heavily.
		"discrete": gen.DiscreteProbs(
			[]float64{0.13, 0.28, 0.46, 0.64, 0.80},
			[]float64{0.15, 0.23, 0.27, 0.22, 0.13},
		),
	}
	for _, prof := range []string{"uniform", "discrete"} {
		for _, per := range []int{3, 10} {
			g, err := gen.BarabasiAlbert(2000, per, profiles[prof], rand.New(rand.NewPCG(3, uint64(per))))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, graphCase(fmt.Sprintf("ba2000-m%d-%s", per, prof), g))
		}
	}

	star := uncertain.New(301)
	for v := 1; v <= 300; v++ {
		star.MustAddEdge(0, uncertain.NodeID(v), 0.8)
	}
	cases = append(cases, graphCase("star300", star))

	// Two clusters 1000 theta apart: no kernel mass crosses between them.
	rng := rand.New(rand.NewPCG(5, 5))
	var clusters []float64
	for i := 0; i < 500; i++ {
		clusters = append(clusters, rng.NormFloat64(), 1000+rng.NormFloat64())
	}
	cases = append(cases, commonnessCase{name: "two-clusters", values: clusters, theta: 1})

	// Samuelson's bound: with n-1 values at 0 and one at a, the outlier
	// sits exactly sigma*sqrt(n-1) from the mean. theta = sigma as in
	// VertexUniqueness.
	for _, n := range []int{3, 10, 1000} {
		vals := make([]float64, n)
		vals[n-1] = 7
		sigma := 7 * math.Sqrt(float64(n-1)) / float64(n)
		cases = append(cases, commonnessCase{name: fmt.Sprintf("samuelson-n%d", n), values: vals, theta: sigma})
	}

	// A lone value with 500 others 3 theta away, every value half a grid
	// step off the grid: the binning error of all 500 adds up with one
	// sign, the case the h^2 correction exists for.
	tail := []float64{0.5 / 256}
	for i := 0; i < 500; i++ {
		tail = append(tail, 3+0.5/256)
	}
	cases = append(cases, commonnessCase{name: "coherent-tail", values: tail, theta: 1})

	equal := make([]float64, 100)
	for i := range equal {
		equal[i] = 3.7
	}
	cases = append(cases,
		commonnessCase{name: "all-equal", values: equal, theta: 1},
		commonnessCase{name: "n1", values: []float64{2.5}, theta: 0.3},
	)
	return cases
}

// checkContract fails t unless got is within maxRelErr of the oracle on
// every value and gives bit-equal outputs to equal inputs.
func checkContract(t *testing.T, values, got, want []float64) float64 {
	t.Helper()
	worst := 0.0
	first := make(map[float64]float64, len(values))
	for i, v := range values {
		if rel := math.Abs(got[i]-want[i]) / want[i]; !(rel <= maxRelErr) {
			t.Fatalf("value %d (%v): commonness %v, oracle %v, relative error %.3g > %g", i, v, got[i], want[i], rel, maxRelErr)
		} else if rel > worst {
			worst = rel
		}
		if c, ok := first[v]; ok && math.Float64bits(c) != math.Float64bits(got[i]) {
			t.Fatalf("equal inputs %v give different commonness %v and %v", v, c, got[i])
		}
		first[v] = got[i]
	}
	return worst
}

// exclusion returns the top-ceil(eps/2*n) most unique indices, ties
// broken by index, as core's exclusion set picks them.
func exclusion(uniq []float64, eps float64) []int {
	idx := make([]int, len(uniq))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(uniq[b], uniq[a]) })
	h := int(math.Ceil(eps / 2 * float64(len(uniq))))
	top := idx[:h]
	slices.Sort(top)
	return top
}

func TestCommonnessErrorContract(t *testing.T) {
	for _, c := range commonnessCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got := privacy.Commonness(c.values, c.theta)
			want := testkit.NaiveCommonness(c.values, c.theta)
			worst := checkContract(t, c.values, got, want)
			t.Logf("n=%d theta=%.4g max relative error %.3g", len(c.values), c.theta, worst)
			if !c.graph {
				return
			}
			inv := func(cs []float64) []float64 {
				u := make([]float64, len(cs))
				for i, x := range cs {
					u[i] = 1 / x
				}
				return u
			}
			if g, w := exclusion(inv(got), 0.01), exclusion(inv(want), 0.01); !slices.Equal(g, w) {
				t.Fatalf("exclusion set %v, oracle's %v", g, w)
			}
		})
	}
}

// FuzzCommonness checks the binned estimate against the oracle on
// arbitrary values, read as float64 bit patterns from data. Over theta in
// [1e-150, 1e150], where the oracle's own arithmetic neither underflows
// nor overflows, finite values meet the error contract. Everywhere, a
// non-finite value gets NaN and adds nothing to the finite ones, equal
// values get bit-equal outputs, and nothing panics.
func FuzzCommonness(f *testing.F) {
	enc := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(1.0, enc(0, 0, 0, 1000))
	f.Add(0.5, enc(1, 1, 2, 2.25, 3.5, 7))
	f.Add(1e-9, enc(0, 1e6))
	f.Add(2.0, enc(0.5/128, 6, 6, 6, 6, 6, 6, 6, 6))
	f.Add(1.0, enc(math.Inf(1), 2, math.NaN(), 2.5, math.Inf(-1)))
	f.Add(1e100, enc(-1e308, 1e308, 0))
	f.Add(3.0, enc(1e15, 1e15+1, 1e15+4))
	f.Fuzz(func(t *testing.T, theta float64, data []byte) {
		if len(data) > 8*512 {
			data = data[:8*512]
		}
		values := make([]float64, len(data)/8)
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		got := privacy.Commonness(values, theta)
		if len(got) != len(values) {
			t.Fatalf("%d outputs for %d values", len(got), len(values))
		}
		if !(theta > 0) {
			return // the exact-match count, unchanged
		}
		var finite, fin []float64
		for i, v := range values {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				if !math.IsNaN(got[i]) {
					t.Fatalf("non-finite value %v has commonness %v, want NaN", v, got[i])
				}
				continue
			}
			finite, fin = append(finite, v), append(fin, got[i])
		}
		if theta < 1e-150 || theta > 1e150 {
			first := make(map[float64]float64, len(finite))
			for i, v := range finite {
				if c, ok := first[v]; ok && math.Float64bits(c) != math.Float64bits(fin[i]) {
					t.Fatalf("equal inputs %v give different commonness %v and %v", v, c, fin[i])
				}
				first[v] = fin[i]
			}
			return
		}
		checkContract(t, finite, fin, testkit.NaiveCommonness(finite, theta))
	})
}

// TestCommonnessMemoryBounded: a tiny theta over a wide range must not
// allocate by the spread of the values (here 2.56e17 grid steps), only
// in proportion to the number of values.
func TestCommonnessMemoryBounded(t *testing.T) {
	for _, n := range []int{2, 2000} {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(i) * 1e6
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			privacy.Commonness(values, 1e-9)
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(256 * n); perRun > limit {
			t.Errorf("n=%d: %d bytes per call, want at most %d", n, perRun, limit)
		}
	}
}
