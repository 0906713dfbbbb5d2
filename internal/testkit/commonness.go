package testkit

import "math"

// NaiveCommonness is the all-pairs theta-commonness (Definition 4):
// C_theta(w) = sum_u phi_{0,theta}(|w - w_u|), one exp per ordered pair of
// values. It is O(n^2) on purpose and is the oracle the binned estimator
// privacy.Commonness is checked against; no production code calls it.
func NaiveCommonness(values []float64, theta float64) []float64 {
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
	norm := 1 / (theta * math.Sqrt(2*math.Pi))
	inv2t2 := 1 / (2 * theta * theta)
	for i, w := range values {
		var c float64
		for _, x := range values {
			d := w - x
			c += norm * math.Exp(-d*d*inv2t2)
		}
		out[i] = c
	}
	return out
}
