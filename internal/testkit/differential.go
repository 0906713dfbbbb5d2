package testkit

import (
	"fmt"

	"chameleon/internal/exact"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// DifferentialOracle cross-checks the three reliability engines on one
// corpus graph: exact enumeration (internal/exact) gives the truth, and
// both the production bitset Monte Carlo engine (internal/reliability)
// and the independent naive BFS engine (NaiveEstimator) must land within Z standard errors of it, with
// every tolerance derived from the exact per-world moments. It returns
// one error per violated assertion; an empty slice means the engines
// agree on reliability, connected pairs, Delta-discrepancy and ERR.
func DifferentialOracle(cg CorpusGraph, samples int, seed uint64) []error {
	g := cg.G
	var errs []error
	fail := func(err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", cg.Name, err))
		}
	}

	mo, err := ExactMoments(g)
	if err != nil {
		return []error{fmt.Errorf("%s: exact moments: %w", cg.Name, err)}
	}

	bitset := reliability.Estimator{Samples: samples, Seed: seed}
	naive := NaiveEstimator{Samples: samples, Seed: seed}

	// Pair reliability: the full matrix from each Monte Carlo engine
	// against the enumerated truth, binomial-proportion tolerances.
	n := g.NumNodes()
	checkMatrix := func(engine string, r func(u, v uncertain.NodeID) float64) {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				want := mo.PairR[u][v]
				got := r(uncertain.NodeID(u), uncertain.NodeID(v))
				fail(CheckClose(
					fmt.Sprintf("%s R(%d,%d)", engine, u, v),
					got, want, BernoulliTol(want, samples)))
			}
		}
	}
	rows := bitset.SampleLabels(g)
	checkMatrix("bitset", func(u, v uncertain.NodeID) float64 {
		return pairFromLabels(rows, u, v, samples)
	})
	checkMatrix("naive", func(u, v uncertain.NodeID) float64 {
		return naive.PairReliability(g, u, v)
	})
	// One direct call through the public per-pair entry point, so the
	// PairReliability code path itself (not just SampleLabels) is covered.
	fail(CheckClose("bitset PairReliability(0,last)",
		bitset.PairReliability(g, 0, uncertain.NodeID(n-1)),
		mo.PairR[0][n-1], BernoulliTol(mo.PairR[0][n-1], samples)))

	// Expected connected pairs: mean of cc(W), exact variance known.
	ccTol := MeanTol(mo.CCVar, samples)
	fail(CheckClose("bitset E[cc]", bitset.ExpectedConnectedPairs(g), mo.CCMean, ccTol))
	fail(CheckClose("naive E[cc]", naive.ExpectedConnectedPairs(g), mo.CCMean, ccTol))

	// Delta-discrepancy against a deterministically perturbed sibling.
	h := PerturbedSibling(g)
	wantDelta, err := exact.Discrepancy(g, h)
	if err != nil {
		fail(fmt.Errorf("exact discrepancy: %w", err))
		return errs
	}
	rh, err := exact.AllPairReliability(h)
	if err != nil {
		fail(fmt.Errorf("exact pair reliability (sibling): %w", err))
		return errs
	}
	dTol := DiscrepancyTol(mo.PairR, rh, samples)
	gotDelta, err := bitset.Discrepancy(g, h)
	if err != nil {
		fail(err)
	} else {
		fail(CheckClose("bitset Delta", gotDelta, wantDelta, dTol))
	}
	fail(CheckClose("naive Delta", naive.Discrepancy(g, h), wantDelta, dTol))

	// Edge reliability relevance, both estimator families. Edges pinned
	// at 0 or 1 are skipped: the grouped estimator serves them through a
	// separately budgeted conditional fallback whose error is not bounded
	// by the split-sample analysis below.
	grouped := bitset.EdgeRelevance(g)
	coupled := naive.EdgeRelevance(g)
	for i := 0; i < g.NumEdges(); i++ {
		p := g.Edge(i).P
		if p <= 0 || p >= 1 {
			continue
		}
		gTol := GroupedERRTol(mo, i, p, samples)
		fail(CheckClose(fmt.Sprintf("bitset ERR[%d] (p=%v)", i, p),
			grouped[i], mo.ERR[i], gTol))
		fail(CheckClose(fmt.Sprintf("naive ERR[%d] (p=%v)", i, p),
			coupled[i], mo.ERR[i], CoupledERRTol(mo, i, samples)))
	}
	return errs
}

// PerturbedSibling derives a deterministic perturbed companion of g for
// discrepancy oracles: every probability is pushed toward the middle of
// the unit interval (p' = 0.25 + p/2), guaranteeing a nonzero exact
// Delta while keeping the sibling enumerable.
func PerturbedSibling(g *uncertain.Graph) *uncertain.Graph {
	h := g.Clone()
	for i := 0; i < h.NumEdges(); i++ {
		p := h.Edge(i).P
		if err := h.SetProb(i, 0.25+p/2); err != nil {
			panic(err) // unreachable: 0.25+p/2 is in [0.25, 0.75]
		}
	}
	return h
}

// pairFromLabels derives R(u,v) from per-world component labels.
func pairFromLabels(rows [][]int32, u, v uncertain.NodeID, samples int) float64 {
	hits := 0
	for _, row := range rows {
		if row[u] == row[v] {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}
