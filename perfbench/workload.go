package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"chameleon/internal/gen"
	"chameleon/internal/query"
	"chameleon/internal/uncertain"
)

// workload is one publish-and-query session shape: the generated input
// graph, the publish parameters, and how a run's seconds are spent.
type workload struct {
	name string
	// nodes and perVertex shape the Barabási–Albert input graph; edge
	// probabilities are uniform on [0.05, 0.95] (mean 0.5).
	nodes, perVertex int
	// k, epsilon and samples are the RSME publish parameters.
	k       int
	epsilon float64
	samples int
	// nominalPublish is the expected length of one publish. It turns the
	// publish share of -seconds into a fixed publish count, so a faster
	// program does the same work rather than more of it.
	nominalPublish time.Duration
	// querySamples is the query engine's Monte Carlo budget.
	querySamples int
	// setups is how many times each query segment sets the engine up;
	// setup_s is the median over all of them.
	setups int
}

// Session constants shared by every workload.
const (
	// publishShare is the part of -seconds given to publishing. The rest
	// serves queries in one segment after each publish, a quarter of each
	// segment closed loop and the rest open loop; a loop's metric is the
	// median over its segments.
	publishShare = 0.6
	// closedClients is the closed loop's number of back-to-back callers.
	closedClients = 2
	// openQPS is the open loop's Poisson arrival rate.
	openQPS = 200
	// knnK is the answer-set size of knn queries.
	knnK = 10
	// parityPairs is how many pair_reliability answers are compared bit
	// for bit against an uncached estimator.
	parityPairs = 5
	// utilitySamples and utilityPairs fix the reliability budget of
	// utility_loss.
	utilitySamples = 1000
	utilityPairs   = 20000
	// graphSeed generates every workload's input graph and seeds its
	// publishes. It is fixed, not taken from -seed: the σ-search of a
	// graph like anon-dense4k's takes 15, 18 or 21 GenObf calls depending
	// on the generator seed, so a graph per -seed would measure the input
	// rather than the program. -seed drives everything else a run reads.
	graphSeed = 3
)

// queryMix is the request mix: pair_reliability 6 : knn 2 : degree 2.
var queryMix = []struct {
	kind   string
	weight int
}{
	{query.KindPairReliability, 6},
	{query.KindKNN, 2},
	{query.KindDegree, 2},
}

var workloads = []workload{
	{
		name: "anon-ba20k", nodes: 20000, perVertex: 3,
		k: 20, epsilon: 0.01, samples: 1000,
		nominalPublish: 9 * time.Second,
		querySamples:   200, setups: 3,
	},
	{
		name: "anon-dense4k", nodes: 4000, perVertex: 10,
		k: 40, epsilon: 0.01, samples: 1000,
		nominalPublish: 9 * time.Second,
		querySamples:   200, setups: 3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// publishes is the number of publishes a run of the given length makes:
// at least two, so a traced run has a traced and an untraced one.
func (w workload) publishes(seconds float64) int {
	return max(2, int(seconds*publishShare/w.nominalPublish.Seconds()))
}

// inputs is the graph a session publishes and queries.
type inputs struct {
	graph *uncertain.Graph
	// encoded is the graph as sectioned-v2 bytes: what a publish decodes.
	encoded []byte
}

// makeInputs generates the workload's input graph with the generator
// stream `genug -topology ba -probs uniform -seed 3` uses.
func makeInputs(w workload) (*inputs, error) {
	rng := rand.New(rand.NewPCG(graphSeed, 0xda7a5e7))
	g, err := gen.BarabasiAlbert(w.nodes, w.perVertex, gen.UniformProbs(0.05, 0.95), rng)
	if err != nil {
		return nil, fmt.Errorf("generate %s input: %w", w.name, err)
	}
	var buf bytes.Buffer
	if err := uncertain.WriteBinaryV2(&buf, g); err != nil {
		return nil, fmt.Errorf("encode %s input: %w", w.name, err)
	}
	return &inputs{graph: g, encoded: buf.Bytes()}, nil
}

// requestStream draws requests from queryMix over n vertices.
type requestStream struct {
	rng   *rand.Rand
	n     int
	total int
}

func newRequestStream(seed, stream uint64, n int) *requestStream {
	total := 0
	for _, m := range queryMix {
		total += m.weight
	}
	return &requestStream{rng: rand.New(rand.NewPCG(seed, stream)), n: n, total: total}
}

func (s *requestStream) next() query.Request {
	x := s.rng.IntN(s.total)
	kind := queryMix[len(queryMix)-1].kind
	for _, m := range queryMix {
		if x < m.weight {
			kind = m.kind
			break
		}
		x -= m.weight
	}
	req := query.Request{Kind: kind, U: uncertain.NodeID(s.rng.IntN(s.n))}
	switch kind {
	case query.KindPairReliability:
		req.V = uncertain.NodeID(s.rng.IntN(s.n))
	case query.KindKNN:
		req.K = knnK
	}
	return req
}
