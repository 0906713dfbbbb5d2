package privacy

import (
	"cmp"
	"math"
	"slices"

	"chameleon/internal/uncertain"
)

// Commonness computes the theta-commonness (Definition 4) of each value in
// omega against the whole population: C_theta(w) = sum_u phi_{0,theta}(|w - w_u|),
// with phi the normal density with standard deviation theta.
//
// For theta > 0 the sum is a binned kernel density estimate, not an
// all-pairs loop: each value spreads its unit weight linearly over the
// two nearest points of a grid of spacing h = theta/256, the occupied
// grid points are convolved with Gaussian taps cut at 9.5 theta, and each
// value reads its commonness back by linear interpolation, less the
// leading h^2 term of the binning and interpolation error. Error
// contract: every output is within a relative 1e-5 of the exact sum, and
// equal inputs give bit-equal outputs. Time is O(n log n + B*W), where
// B <= 2n grid points are occupied and each meets at most W <= 4865
// others inside the cut; memory is O(n + 2432) however far apart the
// values lie. A non-finite value's commonness is NaN and it adds nothing
// to the others'. theta <= 0 or NaN degenerates to the exact-match count.
func Commonness(values []float64, theta float64) []float64 {
	n := len(values)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if theta <= 0 || math.IsNaN(theta) {
		// Degenerate kernel: commonness is the exact-match count.
		counts := make(map[float64]float64, n)
		for _, v := range values {
			counts[v]++
		}
		for i, v := range values {
			out[i] = counts[v]
		}
		return out
	}
	binnedCommonness(values, theta, out)
	return out
}

const (
	// binsPerTheta sets the grid spacing h = theta/binsPerTheta.
	binsPerTheta = 256
	// maxTap is the farthest grid offset with a kernel tap, ceil(9.5 *
	// binsPerTheta). A value beyond 9.5 theta adds under e^-45 of the
	// self term phi(0) that every commonness contains.
	maxTap = 2432
	// maxGrid bounds a grid index, so a run anchored at its smallest
	// value never overflows int however large the values or theta.
	maxGrid = 1 << 40
)

// kernelTap is the kernel k grid steps out, in units of phi(0):
// psi(u) = exp(-u^2/2) and its second derivative psi2(u) = (u^2-1) psi(u)
// at u = k/binsPerTheta. Neither depends on theta.
type kernelTap struct{ psi, psi2 float64 }

var kernelTaps = func() []kernelTap {
	t := make([]kernelTap, maxTap+1)
	for k := range t {
		u := float64(k) / binsPerTheta
		psi := math.Exp(-u * u / 2)
		t[k] = kernelTap{psi, (u*u - 1) * psi}
	}
	return t
}()

// binnedCommonness fills out with the binned estimate for theta > 0.
// Values are visited in sorted order and cut into runs wherever two
// neighbours lie more than the kernel cut apart. Values in different runs
// are out of each other's reach, so each run is binned on a grid of its
// own anchored at its smallest value, and only occupied grid points are
// stored: nothing is sized by the spread of the values.
func binnedCommonness(values []float64, theta float64, out []float64) {
	order := make([]int, 0, len(values))
	for i, v := range values {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			out[i] = math.NaN()
			continue
		}
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(values[a], values[b]) })

	h := theta / binsPerTheta
	cut := maxTap * h
	norm := 1 / (theta * math.Sqrt(2*math.Pi))
	var r kdeRun
	start, origin := 0, 0.0
	for j, i := range order {
		x := values[i]
		pos := 0.0
		if d := x - origin; d != 0 {
			pos = d / h
		}
		// The NaN test catches an infinite theta or an overflowing span.
		if j == 0 || x-values[order[j-1]] > cut || !(pos <= maxGrid) {
			r.flush(order[start:j], norm, out)
			start, origin, pos = j, x, 0
		}
		r.add(pos)
	}
	r.flush(order[start:], norm, out)
}

// kdeRun is the scratch of one run of binnedCommonness, reused across
// runs. Per occupied grid point, in increasing grid order: its index, the
// binned unit weight w and binned curvature weight v of the values around
// it, and after the convolution the densities psi*w, psi2*w and psi2*v.
// Per value, in the order added: the position of its left grid point in
// idx and its fractional offset f from it.
type kdeRun struct {
	idx            []int
	w, v           []float64
	dens, d2w, d2v []float64
	left           []int
	frac           []float64
}

// add bins the next value of the run, pos grid steps from its origin.
func (r *kdeRun) add(pos float64) {
	g := math.Floor(pos)
	gi, f := int(g), pos-g
	// Values arrive sorted, so the occupied points end with the previous
	// value's left and right points, and gi is one of them or beyond.
	switch n := len(r.idx); {
	case n >= 2 && r.idx[n-2] == gi:
	case n >= 1 && r.idx[n-1] == gi:
		r.idx, r.w, r.v = append(r.idx, gi+1), append(r.w, 0), append(r.v, 0)
	default:
		r.idx, r.w, r.v = append(r.idx, gi, gi+1), append(r.w, 0, 0), append(r.v, 0, 0)
	}
	p := len(r.idx) - 2
	c := f * (1 - f)
	r.w[p] += 1 - f
	r.w[p+1] += f
	r.v[p] += (1 - f) * c
	r.v[p+1] += f * c
	r.left, r.frac = append(r.left, p), append(r.frac, f)
}

// flush convolves the run's occupied grid points with the kernel taps,
// writes the commonness of the run's values (vals, in the order they were
// added) to out, and empties the run.
//
// Linear binning of a source value and linear interpolation at a target
// value, with fractional offsets fs and ft, estimate phi(d) for their
// distance d as phi(d) + h^2/2 (fs(1-fs) + ft(1-ft)) phi2(d) + O(h^3),
// phi2 being the second derivative of phi. The psi2 densities remove that
// h^2 term, which would otherwise reach 1e-4 relative where many values
// sit 3-5 theta from a lone one.
func (r *kdeRun) flush(vals []int, norm float64, out []float64) {
	if len(vals) == 0 {
		return
	}
	nb := len(r.idx)
	r.dens = slices.Grow(r.dens[:0], nb)[:nb]
	r.d2w = slices.Grow(r.d2w[:0], nb)[:nb]
	r.d2v = slices.Grow(r.d2v[:0], nb)[:nb]
	clear(r.dens)
	clear(r.d2w)
	clear(r.d2v)
	for a, ia := range r.idx {
		wa, va := r.w[a], r.v[a]
		t := kernelTaps[0]
		da, d2wa, d2va := r.dens[a]+wa*t.psi, r.d2w[a]+wa*t.psi2, r.d2v[a]+va*t.psi2
		for b := a + 1; b < nb; b++ {
			off := r.idx[b] - ia
			if off > maxTap {
				break
			}
			t := kernelTaps[off]
			da += r.w[b] * t.psi
			d2wa += r.w[b] * t.psi2
			d2va += r.v[b] * t.psi2
			r.dens[b] += wa * t.psi
			r.d2w[b] += wa * t.psi2
			r.d2v[b] += va * t.psi2
		}
		r.dens[a], r.d2w[a], r.d2v[a] = da, d2wa, d2va
	}
	const halfH2 = 0.5 / (binsPerTheta * binsPerTheta) // h^2/2 in units of theta^2
	at := func(d []float64, p int, f float64) float64 { return (1-f)*d[p] + f*d[p+1] }
	for j, i := range vals {
		p, f := r.left[j], r.frac[j]
		bias := halfH2 * (at(r.d2v, p, f) + f*(1-f)*at(r.d2w, p, f))
		out[i] = norm * (at(r.dens, p, f) - bias)
	}
	r.idx, r.w, r.v = r.idx[:0], r.w[:0], r.v[:0]
	r.left, r.frac = r.left[:0], r.frac[:0]
}

// Uniqueness returns the theta-uniqueness of each vertex property value:
// U_theta(w) = 1 / C_theta(w). Higher means the vertex's property value is
// rarer and the vertex needs more anonymization noise.
func Uniqueness(values []float64, theta float64) []float64 {
	c := Commonness(values, theta)
	out := make([]float64, len(c))
	for i, ci := range c {
		if ci > 0 {
			out[i] = 1 / ci
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// VertexUniqueness computes the uniqueness score of every vertex of g over
// the expected-degree property with the kernel bandwidth theta = sigma_G,
// the standard deviation of the property over the graph (the paper's
// uncertainty-aware choice in Section V-C).
func VertexUniqueness(g uncertain.View) []float64 {
	theta := g.DegreeStdDev()
	if theta <= 0 {
		theta = 1
	}
	return Uniqueness(g.ExpectedDegrees(), theta)
}
