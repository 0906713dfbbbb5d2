package uncertain

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// SamplingMode selects the world-drawing strategy of the Monte Carlo
// estimators. All modes draw each edge independently with its configured
// probability — per-world marginals are identical — but they differ in how
// worlds relate to each other (and to the worlds of a second graph),
// trading the plain-iid stream for lower estimator variance.
type SamplingMode uint8

const (
	// SampleIndependent draws every world from an independent per-index
	// PCG stream. This is the default and the cross-implementation replay
	// contract: bit-identical to Graph.SampleWorld over the same state.
	SampleIndependent SamplingMode = iota
	// SampleAntithetic draws worlds in antithetic pairs: indices 2j and
	// 2j+1 replay the same PCG stream, the odd index with complemented
	// uniforms (u -> 1-u). Each world's marginals are exact; within a pair
	// the edge indicators are maximally negatively correlated, which
	// reduces the variance of any estimate monotone in edge presence
	// (connected pairs, reliability).
	SampleAntithetic
	// SampleStratified draws each edge's uniform from a randomly shifted
	// per-edge rank-1 lattice (a Cranley–Patterson rotation): world s of
	// edge e compares offset_e + s*step_e against the edge's threshold.
	// The random offset makes every single world exactly an independent
	// Bernoulli draw per edge, while across worlds each edge's hit count
	// tracks n*p with low discrepancy. Any world-count prefix is valid, so
	// the mode composes with adaptive stopping. Worlds are NOT mutually
	// independent across sample indices (that is the point), so
	// cross-world joint statistics are not product-form.
	SampleStratified
	// SampleCoupled derives each edge's uniform by hashing (seed, world
	// index, edge endpoints). Because the hash is keyed by endpoints
	// rather than edge position, two graphs sharing an edge draw the SAME
	// uniform for it at every sample index — common random numbers — so
	// difference estimates (discrepancy, Δ expected connectivity) keep
	// only the variance of the edges whose probabilities actually differ.
	SampleCoupled
)

// String implements fmt.Stringer with the CLI flag spellings.
func (m SamplingMode) String() string {
	switch m {
	case SampleIndependent:
		return "independent"
	case SampleAntithetic:
		return "antithetic"
	case SampleStratified:
		return "stratified"
	case SampleCoupled:
		return "coupled"
	default:
		return fmt.Sprintf("SamplingMode(%d)", uint8(m))
	}
}

// ParseSamplingMode maps the CLI flag spellings (and "" meaning the
// default) back to a SamplingMode.
func ParseSamplingMode(s string) (SamplingMode, error) {
	switch s {
	case "", "independent":
		return SampleIndependent, nil
	case "antithetic":
		return SampleAntithetic, nil
	case "stratified":
		return SampleStratified, nil
	case "coupled":
		return SampleCoupled, nil
	default:
		return SampleIndependent, fmt.Errorf("uncertain: unknown sampling mode %q (want independent, antithetic, stratified or coupled)", s)
	}
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche mixer whose
// output over a counter input passes BigCrush. It is the hash behind the
// stratified offsets/steps and the coupled per-edge uniforms.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// golden is the 64-bit golden-ratio multiplier used to spread packed edge
// endpoints before mixing.
const golden = 0x9e3779b97f4a7c15

// coupledStep is the per-index increment of the coupled hash stream (the
// odd LCG multiplier from L64X128; any odd constant with good avalanche
// interaction works).
const coupledStep = 0xd1342543de82ef95

// SampleIntoAntithetic draws one world like SampleInto but with every
// uniform complemented when mirror is set: the draw d in [0,2^53) becomes
// mask53-d, i.e. u -> 1-u. With mirror false it is bit-identical to
// SampleInto, so estimators run even indices plain and odd indices
// mirrored over the SAME stream to form antithetic pairs. Marginals are
// exact either way: the complement is a bijection on the 53-bit draws, so
// exactly ceil(p*2^53) of them fall under each edge's threshold.
func (s *WorldSampler) SampleIntoAntithetic(w *World, pcg *rand.PCG, mirror bool) {
	var flip uint64
	if mirror {
		flip = mask53
	}
	s.sampleThreshold(w, pcg, flip)
}

// SampleInto draws one possible world into w, reusing w's bitset storage.
// The world drawn from a given PCG state is bit-for-bit identical to
// Graph.SampleWorld with a rand.Rand over the same state: one draw per
// edge with 0 < p < 1, in edge-index order. This is the determinism
// contract every Monte Carlo estimator builds on.
func (s *WorldSampler) SampleInto(w *World, pcg *rand.PCG) {
	s.sampleThreshold(w, pcg, 0)
}

// sampleThreshold is the shared threshold-comparison kernel: one PCG draw
// per uncertain edge, XORed with flip (0 = plain, mask53 = antithetic
// complement) before the threshold test.
func (s *WorldSampler) sampleThreshold(w *World, pcg *rand.PCG, flip uint64) {
	w.src, w.core = s.src, s.core
	nE := len(s.thresh)
	w.bits = w.bits.grow(nE)
	words := len(w.bits)
	thresh := s.thresh
	m := 0
	// Build each output word in a register and store it once, instead of a
	// read-modify-write per set bit. A threshold of 0 (p <= 0) never draws;
	// threshAlways (p >= 1) sets the bit without drawing.
	for wi := 0; wi < words; wi++ {
		base := wi << 6
		end := base + 64
		if end > nE {
			end = nE
		}
		var word uint64
		for k, t := range thresh[base:end] {
			if t == threshAlways {
				word |= 1 << uint(k)
				continue
			}
			if t == 0 {
				continue
			}
			// Branchless set: the comparison outcome is a coin flip, so a
			// conditional bit-or beats a 50%-mispredicted branch.
			var b uint64
			if pcg.Uint64()&mask53^flip < t {
				b = 1
			}
			word |= b << uint(k)
		}
		w.bits[wi] = word
		m += bits.OnesCount64(word)
	}
	w.m = m
}

// edgeKey spreads an edge's packed endpoints (u<<32|v) for hashing. Keyed
// by endpoints rather than edge index so two graphs sharing an edge derive
// the same per-edge randomness whatever position the edge occupies.
func edgeKey(uv uint64) uint64 { return uv * golden }

// SampleIntoStratified draws world idx of the seed-keyed randomized
// lattice: edge e's uniform is the top 53 bits of
//
//	offset_e + idx * step_e  (mod 2^64)
//
// with offset_e = mix64(seed ^ key_e) and step_e = mix64(key_e+golden)|1.
// The offset is a uniform hash of the seed, so each fixed idx is exactly
// one independent Bernoulli draw per edge (a Cranley–Patterson rotation of
// the per-edge lattice); across idx each edge walks an equidistributed
// orbit, so hit counts track n*p with low discrepancy — the stratification.
// Certain and impossible edges consume no randomness, as in SampleInto.
//
// Draws are keyed by (seed, idx, endpoints) alone — no stream state — so
// any subset of indices can be drawn in any order, which is what lets the
// adaptive chunk scheduler and the σ-checkpoint resume replay worlds
// exactly.
func (s *WorldSampler) SampleIntoStratified(w *World, seed uint64, idx int) {
	s.sampleHashed(w, seed, idx, false)
}

// SampleIntoCoupled draws world idx with every edge's uniform hashed from
// (seed, idx, endpoints): u_e = mix64(mix64(seed^key_e) + idx*coupledStep).
// The hash never involves the graph's edge ordering or any stream state,
// so two graphs evaluated at the same seed and index draw identical
// uniforms for every edge they share — common random numbers. Difference
// estimators then see variance only from the edges whose probabilities
// differ between the graphs. Like the stratified mode, draws are
// position-independent and replay exactly under resume.
func (s *WorldSampler) SampleIntoCoupled(w *World, seed uint64, idx int) {
	s.sampleHashed(w, seed, idx, true)
}

// sampleHashed is the shared stateless kernel behind the stratified and
// coupled modes: both derive a per-edge base from (seed, endpoints) and
// advance it per index, differing only in whether the per-index value is
// mixed again (coupled: pseudo-independent across indices) or used raw
// (stratified: a lattice orbit across indices).
func (s *WorldSampler) sampleHashed(w *World, seed uint64, idx int, mixIndex bool) {
	w.src, w.core = s.src, s.core
	nE := len(s.thresh)
	w.bits = w.bits.grow(nE)
	words := len(w.bits)
	thresh := s.thresh
	uvs := s.core.uv
	i := uint64(idx)
	m := 0
	for wi := 0; wi < words; wi++ {
		base := wi << 6
		end := base + 64
		if end > nE {
			end = nE
		}
		var word uint64
		for k, t := range thresh[base:end] {
			if t == threshAlways {
				word |= 1 << uint(k)
				continue
			}
			if t == 0 {
				continue
			}
			key := edgeKey(uvs[base+k])
			var u uint64
			if mixIndex {
				u = mix64(mix64(seed^key) + i*coupledStep)
			} else {
				u = mix64(seed^key) + i*(mix64(key+golden)|1)
			}
			var b uint64
			if u>>11 < t {
				b = 1
			}
			word |= b << uint(k)
		}
		w.bits[wi] = word
		m += bits.OnesCount64(word)
	}
	w.m = m
}
