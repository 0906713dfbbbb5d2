package chameleon

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"

	"chameleon/internal/attack"
	"chameleon/internal/core"
	"chameleon/internal/gen"
	"chameleon/internal/knn"
	"chameleon/internal/metrics"
	"chameleon/internal/obs"
	"chameleon/internal/privacy"
	"chameleon/internal/reliability"
	"chameleon/internal/repan"
	"chameleon/internal/uncertain"
)

// Graph is an uncertain graph: a simple undirected graph whose edges carry
// independent existence probabilities.
type Graph = uncertain.Graph

// Edge is one uncertain edge (U < V, probability P).
type Edge = uncertain.Edge

// NodeID identifies a vertex (dense integers in [0, NumNodes)).
type NodeID = uncertain.NodeID

// NewGraph returns an empty uncertain graph over n vertices.
func NewGraph(n int) *Graph { return uncertain.New(n) }

// LoadGraph reads an uncertain graph from a TSV file (first line: node
// count; then "u v p" lines; '#' comments allowed).
func LoadGraph(path string) (*Graph, error) { return uncertain.LoadFile(path) }

// SaveGraph writes a graph in the TSV format accepted by LoadGraph.
func SaveGraph(path string, g *Graph) error { return uncertain.SaveFile(path, g) }

// SaveGraphBinary writes a graph in the sectioned v2 binary format, which
// is lossless (probabilities off its 16-bit grid keep their exact float64
// bits); LoadGraph auto-detects it on read. Prefer it for large graphs:
// it is several times smaller and much faster to parse than TSV.
func SaveGraphBinary(path string, g *Graph) error { return uncertain.SaveBinaryV2File(path, g) }

// ReadGraph parses a graph from a reader in TSV format.
func ReadGraph(r io.Reader) (*Graph, error) { return uncertain.ReadTSV(r) }

// WriteGraph serializes a graph to a writer in TSV format.
func WriteGraph(w io.Writer, g *Graph) error { return uncertain.WriteTSV(w, g) }

// GenerateDataset builds one of the scaled evaluation datasets by name:
// "dblp-s", "brightkite-s" or "ppi-s" (see DESIGN.md for how each mirrors
// its paper counterpart).
func GenerateDataset(name string, seed uint64) (*Graph, error) {
	d, err := gen.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	return d.Build(rand.New(rand.NewPCG(seed, 0xda7a5e7)))
}

// DatasetNames lists the names accepted by GenerateDataset.
func DatasetNames() []string {
	var names []string
	for _, d := range gen.Datasets() {
		names = append(names, d.Name)
	}
	return names
}

// Observer collects observability signals from a pipeline run: a registry
// of counters, gauges and latencies (Monte Carlo sampling volume, genObf
// effort, phase timings), the recorded trace spans, and an optional
// structured logger (set the Logger field). A nil *Observer is a valid
// no-op sink, so instrumentation can stay wired unconditionally.
type Observer = obs.Observer

// NewObserver returns an empty observer ready to be passed via
// Options.Observer.
func NewObserver() *Observer { return obs.NewObserver() }

// NewLogger returns a debug-level structured text logger (for
// Observer.Logger); pass os.Stderr for CLI-style progress output.
func NewLogger(w io.Writer) *slog.Logger { return obs.NewLogger(w) }

// Trace is one span of a hierarchical timing trace; see Result.Trace.
type Trace = obs.Span

// StartProfiles enables the runtime profilers selected by non-empty paths
// (CPU profile, heap profile, execution trace) and returns the stop
// function that flushes them; call it exactly once, typically deferred
// from main.
func StartProfiles(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	return obs.StartProfiles(cpuPath, memPath, tracePath)
}

// Method selects an anonymization algorithm.
type Method string

// The methods evaluated in the paper (Table II).
const (
	// MethodRSME is full Chameleon: reliability-sensitive edge selection
	// plus max-entropy perturbation.
	MethodRSME Method = "RSME"
	// MethodRS keeps reliability-sensitive selection but perturbs with
	// unguided random-sign noise.
	MethodRS Method = "RS"
	// MethodME selects by uniqueness only but perturbs along the entropy
	// gradient.
	MethodME Method = "ME"
	// MethodRepAn is the conventional baseline: extract a deterministic
	// representative, then obfuscate it uncertainty-obliviously.
	MethodRepAn Method = "Rep-An"
)

// Options configures Anonymize.
type Options struct {
	// K is the obfuscation level: each protected vertex must hide within
	// an entropy of at least log2(K) candidate vertices. Required, >= 2.
	K int
	// Epsilon is the tolerated fraction of vertices left under-obfuscated.
	Epsilon float64
	// Method defaults to MethodRSME.
	Method Method
	// Samples is the Monte Carlo budget for reliability estimation
	// (default 1000).
	Samples int
	// Seed makes the run reproducible.
	Seed uint64
	// Workers caps parallelism (0 = all cores).
	Workers int
	// SamplingMode selects the Monte Carlo world-drawing strategy:
	// "independent" (default), "antithetic", "stratified" or "coupled".
	// See DESIGN.md §12 for when each wins.
	SamplingMode string
	// TargetRSE, when positive, switches reliability estimation to
	// adaptive sequential stopping: sampling continues in chunks until the
	// relative standard error of the running estimate drops below this
	// target (or MaxSamples is hit). Samples is then ignored.
	TargetRSE float64
	// MaxSamples caps adaptive sampling (0 = a package default).
	MaxSamples int
	// Attempts is the number of randomized trials per noise level
	// (default 5).
	Attempts int
	// SizeMultiplier is the candidate-set factor c (default 2.0).
	SizeMultiplier float64
	// WhiteNoise is the uniform-noise floor q (default 0.01).
	WhiteNoise float64
	// Observer, when non-nil, receives metrics and structured progress
	// logs from the run (the search trace in Result.Trace is recorded
	// either way).
	Observer *Observer
	// CheckpointPath, when non-empty, snapshots the σ-search state there
	// atomically whenever the run is interrupted (and periodically, per
	// CheckpointEvery), so the search can be resumed.
	CheckpointPath string
	// CheckpointEvery additionally checkpoints every N GenObf calls
	// (0 = only on interrupt). Requires CheckpointPath.
	CheckpointEvery int
	// Resume restores a checkpoint written by an earlier interrupted run
	// over the same graph and parameters; the resumed search replays the
	// remaining work deterministically, so its result is bit-identical to
	// an uninterrupted run.
	Resume *Checkpoint
}

// Checkpoint is a versioned snapshot of an interrupted σ-search; see
// Options.CheckpointPath and Options.Resume.
type Checkpoint = core.Checkpoint

// LoadCheckpoint reads a σ-search checkpoint written by an interrupted
// run (Options.CheckpointPath); pass it via Options.Resume.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpoint(path) }

// Result is the outcome of a successful anonymization.
type Result struct {
	// Graph is the published (k, ε)-obfuscated uncertain graph.
	Graph *Graph
	// EpsilonTilde is the achieved fraction of under-obfuscated vertices.
	EpsilonTilde float64
	// Sigma is the noise level selected by the binary search.
	Sigma float64
	// Method echoes the algorithm used.
	Method Method

	trace *Trace
}

// Trace returns the phase-level search trace of the run: a root
// "anonymize" span with "precompute", "exponential-search" and "bisection"
// children; each search phase holds one "genobf" span per call (sigma
// attribute) whose "attempt" children carry the per-trial outcome
// (epsilon_tilde, ok, injected_edges) and wall time.
func (r *Result) Trace() *Trace { return r.trace }

func (o Options) coreParams() (core.Params, error) {
	mode, err := uncertain.ParseSamplingMode(o.SamplingMode)
	if err != nil {
		return core.Params{}, fmt.Errorf("chameleon: %w", err)
	}
	return core.Params{
		K:               o.K,
		Epsilon:         o.Epsilon,
		Samples:         o.Samples,
		Seed:            o.Seed,
		Workers:         o.Workers,
		SamplingMode:    mode,
		TargetRSE:       o.TargetRSE,
		MaxSamples:      o.MaxSamples,
		Attempts:        o.Attempts,
		SizeMultiplier:  o.SizeMultiplier,
		WhiteNoise:      o.WhiteNoise,
		Obs:             o.Observer,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		Resume:          o.Resume,
	}, nil
}

// Anonymize publishes g under (K, Epsilon)-obfuscation with the selected
// method, minimizing reliability distortion. It cannot be interrupted;
// see AnonymizeContext.
func Anonymize(g *Graph, o Options) (*Result, error) {
	res, err := AnonymizeContext(context.Background(), g, o)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// AnonymizeContext is Anonymize under a context: cancelling ctx stops the
// run cooperatively at sampling and search boundaries. An interrupted run
// returns a NON-nil *Result carrying the best obfuscation found so far
// (its Graph is nil when none was found yet) together with an error
// wrapping ctx.Err() — callers that want graceful degradation check the
// partial result before giving up. With Options.CheckpointPath set, the
// interrupted search state is also saved for Options.Resume.
func AnonymizeContext(ctx context.Context, g *Graph, o Options) (*Result, error) {
	if o.Method == "" {
		o.Method = MethodRSME
	}
	p, err := o.coreParams()
	if err != nil {
		return nil, err
	}
	var res *core.Result
	switch o.Method {
	case MethodRSME:
		p.Variant = core.RSME
		res, err = core.AnonymizeContext(ctx, g, p)
	case MethodRS:
		p.Variant = core.RS
		res, err = core.AnonymizeContext(ctx, g, p)
	case MethodME:
		p.Variant = core.ME
		res, err = core.AnonymizeContext(ctx, g, p)
	case MethodRepAn:
		res, err = repan.AnonymizeContext(ctx, g, p)
	default:
		return nil, fmt.Errorf("chameleon: unknown method %q", o.Method)
	}
	if res == nil {
		return nil, err
	}
	o.Observer.AttachSpan(res.Trace)
	return &Result{Graph: res.Graph, EpsilonTilde: res.EpsilonTilde, Sigma: res.Sigma, Method: o.Method, trace: res.Trace}, err
}

// PrivacyReport describes how well a published graph obfuscates the
// vertices of the original graph against a degree-knowledge adversary.
type PrivacyReport struct {
	// K is the checked obfuscation level.
	K int
	// NonObfuscated counts vertices whose posterior entropy falls below
	// log2(K).
	NonObfuscated int
	// EpsilonTilde is NonObfuscated / |V|.
	EpsilonTilde float64
}

// CheckPrivacy verifies Definition 3: whether pub k-obfuscates the
// vertices of orig (the adversary knows original expected degrees).
func CheckPrivacy(orig, pub *Graph, k int) (PrivacyReport, error) {
	rep, err := privacy.CheckObfuscation(pub, privacy.DegreeProperty(orig), k)
	if err != nil {
		return PrivacyReport{}, err
	}
	return PrivacyReport{K: k, NonObfuscated: rep.NonObfuscated, EpsilonTilde: rep.EpsilonTilde}, nil
}

// UtilityOptions configures EvaluateUtility.
type UtilityOptions struct {
	// Samples is the reliability Monte Carlo budget (default 1000).
	Samples int
	// MetricSamples is the world budget for distance/clustering metrics
	// (default 50).
	MetricSamples int
	// Pairs is the vertex-pair sample for discrepancy (default 20000).
	Pairs int
	// Seed drives sampling.
	Seed uint64
	// Workers caps parallelism.
	Workers int
	// SamplingMode selects the world-drawing strategy for reliability
	// estimation: "independent" (default), "antithetic", "stratified" or
	// "coupled". "coupled" uses common random numbers across the two
	// graphs, collapsing the variance of the discrepancy estimate.
	SamplingMode string
	// TargetRSE, when positive, enables adaptive sequential stopping for
	// the reliability estimators (see Options.TargetRSE).
	TargetRSE float64
	// MaxSamples caps adaptive sampling (0 = a package default).
	MaxSamples int
}

// UtilityReport compares a published graph to the original across the
// paper's evaluation metrics (Section VI-A). Error fields are relative:
// |published - original| / original.
type UtilityReport struct {
	// ReliabilityDiscrepancy is the mean per-pair reliability discrepancy
	// normalized by the original's mean pair reliability (Figures 4/8).
	ReliabilityDiscrepancy float64
	// AvgDegreeError (Figure 9).
	AvgDegreeError float64
	// AvgDistanceError (Figure 10).
	AvgDistanceError float64
	// ClusteringError (Figure 11).
	ClusteringError float64
	// EffectiveDiameterError is the supplementary node-separation error.
	EffectiveDiameterError float64
}

// EvaluateUtility measures how much structure pub lost relative to orig.
func EvaluateUtility(orig, pub *Graph, o UtilityOptions) (UtilityReport, error) {
	if o.MetricSamples <= 0 {
		o.MetricSamples = 50
	}
	mode, err := uncertain.ParseSamplingMode(o.SamplingMode)
	if err != nil {
		return UtilityReport{}, fmt.Errorf("chameleon: %w", err)
	}
	// The per-call label cache lets the discrepancy estimate and its
	// normalization term share one sampling pass over orig.
	est := reliability.Estimator{
		Samples: o.Samples, Seed: o.Seed, Workers: o.Workers,
		Cache: reliability.NewLabelCache(), Mode: mode,
		TargetRSE: o.TargetRSE, MaxSamples: o.MaxSamples,
	}
	rel, err := est.RelativeDiscrepancy(orig, pub, reliability.PairSample{Pairs: o.Pairs, Seed: o.Seed + 1})
	if err != nil {
		return UtilityReport{}, err
	}
	mo := metrics.Options{Samples: o.MetricSamples, Seed: o.Seed + 2, Workers: o.Workers}
	origDist := mo.Distances(orig)
	pubDist := mo.Distances(pub)
	return UtilityReport{
		ReliabilityDiscrepancy: rel,
		AvgDegreeError:         metrics.RelativeError(metrics.AverageDegree(orig), metrics.AverageDegree(pub)),
		AvgDistanceError:       metrics.RelativeError(origDist.AverageDistance, pubDist.AverageDistance),
		ClusteringError:        metrics.RelativeError(mo.ClusteringCoefficient(orig), mo.ClusteringCoefficient(pub)),
		EffectiveDiameterError: metrics.RelativeError(origDist.EffectiveDiameter, pubDist.EffectiveDiameter),
	}, nil
}

// PairReliability estimates R_{u,v}: the probability that u and v are
// connected in a random possible world of g.
func PairReliability(g *Graph, u, v NodeID, samples int, seed uint64) float64 {
	est := reliability.Estimator{Samples: samples, Seed: seed}
	return est.PairReliability(g, u, v)
}

// ReliabilityFrom estimates R_{src,v} for every vertex v in one pass: the
// probability that each vertex is connected to src over the possible
// worlds. Useful for reliability-based nearest-neighbor queries.
func ReliabilityFrom(g *Graph, src NodeID, samples int, seed uint64) []float64 {
	est := reliability.Estimator{Samples: samples, Seed: seed}
	return est.ReliabilityVector(g, src)
}

// Representative extracts a deterministic representative instance of g
// (the first phase of the Rep-An baseline).
func Representative(g *Graph) *Graph { return repan.Representative(g) }

// AttackReport summarizes a simulated degree-knowledge re-identification
// attack (the identity-disclosure threat of Section III-C).
type AttackReport struct {
	// MeanPosterior is the average probability the Bayesian adversary
	// assigns to the true vertex (random guessing: 1/|V|; the k-obf
	// target regime: <= ~1/k).
	MeanPosterior float64
	// Top1Rate is the fraction of targets identified by the adversary's
	// single best guess.
	Top1Rate float64
	// TopKRate is the fraction of targets inside the adversary's top-k
	// shortlist.
	TopKRate float64
	// MeanRank is the true vertex's average rank in the candidate list.
	MeanRank float64
}

// SimulateAttack attacks the published graph pub with an adversary who
// knows each target's degree in orig, reporting aggregate success. Use it
// to validate empirically what CheckPrivacy certifies formally.
func SimulateAttack(orig, pub *Graph, k int) (AttackReport, error) {
	rep, err := attack.Simulate(orig, pub, k)
	if err != nil {
		return AttackReport{}, err
	}
	return AttackReport{
		MeanPosterior: rep.MeanPosterior,
		Top1Rate:      rep.Top1Rate,
		TopKRate:      rep.TopKRate,
		MeanRank:      rep.MeanRank,
	}, nil
}

// ReliabilityKNN returns the k vertices most reliably connected to src
// (the query model of Potamias et al. [30]). The result may be shorter
// than k when fewer vertices are reachable.
func ReliabilityKNN(g *Graph, src NodeID, k, samples int, seed uint64) ([]NodeID, error) {
	est := reliability.Estimator{Samples: samples, Seed: seed}
	neighbors, err := knn.Query(g, src, k, est)
	if err != nil {
		return nil, err
	}
	out := make([]NodeID, len(neighbors))
	for i, n := range neighbors {
		out[i] = n.Node
	}
	return out, nil
}

// KNNPreservation measures how well pub answers reliability k-NN queries
// like orig: the mean Jaccard similarity of top-k neighborhoods over
// random query vertices (1 = intact).
func KNNPreservation(orig, pub *Graph, k, queries, samples int, seed uint64) (float64, error) {
	est := reliability.Estimator{Samples: samples, Seed: seed}
	return knn.PreservationScore(orig, pub, knn.PreservationOptions{K: k, Queries: queries, Seed: seed + 1}, est)
}

// EdgeRelevance estimates the reliability relevance ERR of every edge of
// g: the drop in expected pairwise connectivity if the edge were certainly
// absent versus certainly present (Definition 5, estimated with the
// sample-reuse Algorithm 2). High-relevance edges are the probabilistic
// generalization of bridges.
func EdgeRelevance(g *Graph, samples int, seed uint64) []float64 {
	est := reliability.Estimator{Samples: samples, Seed: seed}
	return est.EdgeRelevance(g)
}
