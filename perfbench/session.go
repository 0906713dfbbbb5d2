package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chameleon"
	"chameleon/internal/obs"
	"chameleon/internal/obs/traceout"
	"chameleon/internal/privacy"
	"chameleon/internal/query"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	workers int
	// anonymize replaces the publish step when non-nil (tests forge
	// published graphs with it).
	anonymize anonymizeFunc
}

// session is one run of a workload.
type session struct {
	w     workload
	cfg   config
	in    *inputs
	roots []*obs.Span // traced runs: every recorded span tree

	runs        []*publishRun // the publishes that passed every check
	failures    []string      // the checks the other publishes failed
	q           *querySide
	utilityLoss float64       // untraced runs
	layers      *layerSamples // traced runs
}

// sessionResult is what a run prints.
type sessionResult struct {
	attempted, failed int
	metrics           map[string]metric
	report            map[string]any
}

// runSession generates the workload's input, then alternates publishes
// of it with segments of queries over it, and reduces the measurements
// to the end-to-end metrics, or with cfg.traced to the per-layer
// metrics. Alternating spreads both sides over the whole run, so a slow
// spell of a shared host lands on a share of each rather than on one.
func runSession(ctx context.Context, w workload, cfg config) (*sessionResult, error) {
	in, err := makeInputs(w)
	if err != nil {
		return nil, err
	}
	if cfg.anonymize == nil {
		cfg.anonymize = chameleon.AnonymizeContext
	}
	s := &session{w: w, cfg: cfg, in: in, q: newQuerySide()}
	steal0 := stealTime()
	res := &sessionResult{report: map[string]any{
		"workload": w.name,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"traced":   cfg.traced,
		"host":     hostStamp(),
		"input": map[string]any{
			"graph_seed": graphSeed, "nodes": in.graph.NumNodes(), "edges": in.graph.NumEdges(),
			"v2_bytes": len(in.encoded),
		},
	}}

	rounds := w.publishes(cfg.seconds)
	queryFor := time.Duration(cfg.seconds * (1 - publishShare) / float64(rounds) * float64(time.Second))
	for i := 0; i < rounds; i++ {
		// A traced run alternates traced and untraced publishes, so the
		// tracing overhead is measured in the same run.
		if err := s.publishRound(ctx, cfg.traced && i%2 == 0); err != nil {
			return nil, err
		}
		runtime.GC()
		s.querySegment(ctx, i, queryFor/4, queryFor-queryFor/4)
	}
	if len(s.runs) == 0 {
		return nil, fmt.Errorf("%s: every publish failed; first: %s", w.name, s.failures[0])
	}
	res.attempted = len(s.runs) + len(s.failures) + s.q.attempted
	res.failed = len(s.failures) + s.q.failed
	if s.layers != nil {
		// The obfuscation check's verdict on the published graph must
		// reproduce the anonymizer's: one more checked operation.
		res.attempted++
		if s.layers.mismatch != "" {
			res.failed++
		}
	}

	s.addReport(res.report)
	if cfg.traced {
		if res.metrics, err = s.layerMetrics(res.report); err != nil {
			return nil, err
		}
		path, err := s.writeTrace()
		if err != nil {
			return nil, err
		}
		res.report["trace_file"] = path
	} else {
		res.metrics = s.endToEndMetrics()
	}
	res.report["host_steal_s"] = (stealTime() - steal0).Seconds()
	if err := s.writeReport(res.report); err != nil {
		return nil, err
	}
	return res, nil
}

// publishRound makes one publish and, after the first that passes, the
// extra measurements that need its graphs: the utility loss, or in a
// traced run the standalone layer calls. Then it drops the graphs.
func (s *session) publishRound(ctx context.Context, traced bool) error {
	p := s.publishOnce(ctx, traced)
	if p.span != nil {
		s.roots = append(s.roots, p.span)
	}
	if p.failure == "" && len(s.runs) > 0 && p.hash != s.runs[0].hash {
		p.fail("published graph differs from the first publish of the same input and seed")
	}
	if p.failure != "" {
		s.failures = append(s.failures, p.failure)
		return nil
	}
	var err error
	switch {
	case !s.cfg.traced && len(s.runs) == 0:
		s.utilityLoss, err = s.measureUtilityLoss(p)
	case traced && s.layers == nil:
		s.layers, err = s.measureLayers(ctx, p)
	}
	if err != nil {
		return err
	}
	p.release()
	s.runs = append(s.runs, p)
	return nil
}

// addReport records what was published and what was served.
func (s *session) addReport(report map[string]any) {
	first := s.runs[0]
	st := searchStatsOf(first.trace)
	walls := make([]float64, len(s.runs))
	for i, p := range s.runs {
		walls[i] = p.wall.Seconds()
	}
	report["publish"] = map[string]any{
		"count":           len(s.runs) + len(s.failures),
		"wall_s":          walls,
		"failures":        s.failures,
		"sigma":           first.sigma,
		"epsilon_tilde":   first.epsilonTilde,
		"genobf_calls":    st.genobfCalls,
		"attempts":        st.attempts,
		"published_edges": first.publishedEdges,
		"edge_list_hash":  fmt.Sprintf("%016x", first.hash),
	}
	q := s.q
	report["query"] = map[string]any{
		"closed_completed":     q.closedDone,
		"closed_clients":       closedClients,
		"closed_segment_qps":   q.closedQPS,
		"open_qps":             openQPS,
		"open_segment_samples": q.openSamples,
		"open_segment_p99_ms":  scale(q.openP99, 1e3),
		"setups":               len(q.setup),
		"failures":             q.failed,
		"first_failure":        q.firstFailure,
	}
}

// endToEndMetrics reduces an untraced run to the end-to-end metrics.
func (s *session) endToEndMetrics() map[string]metric {
	var wall, cpu, heap []float64
	for _, p := range s.runs {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		heap = append(heap, float64(p.peakHeap)/mib)
	}
	q := s.q
	return map[string]metric{
		"anonymize_s":  {median(wall), "s"},
		"cpu_s":        {median(cpu), "s"},
		"peak_heap_mb": {median(heap), "MB"},
		"utility_loss": {s.utilityLoss, "ratio"},
		"setup_s":      {median(seconds(q.setup)), "s"},
		"query_qps":    {median(q.closedQPS), "1/s"},
		"query_p50_ms": {median(q.openP50) * 1e3, "ms"},
	}
}

// measureUtilityLoss is the relative reliability discrepancy of the
// published graph against the input (Def. 2) at a fixed budget and fixed
// seeds. Coupled sampling draws both graphs' worlds from common random
// numbers, so the estimate is the graphs' difference rather than
// sampling noise.
func (s *session) measureUtilityLoss(p *publishRun) (float64, error) {
	est := reliability.Estimator{
		Samples: utilitySamples, Seed: graphSeed, Workers: s.cfg.workers,
		Cache: reliability.NewLabelCache(), Mode: uncertain.SampleCoupled,
	}
	loss, err := est.RelativeDiscrepancy(p.orig, p.graph,
		reliability.PairSample{Pairs: utilityPairs, Seed: graphSeed + 1})
	if err != nil {
		return 0, fmt.Errorf("utility loss: %w", err)
	}
	return loss, nil
}

// layerSamples are the standalone layer calls of a traced run.
type layerSamples struct {
	uniqueness, relevance float64 // seconds, median over repeats
	uniquenessAlloc       uint64  // bytes one uniqueness call allocates
	relevanceCPUPerWall   float64
	worlds                int64     // worlds one relevance call samples
	obfcheck              []float64 // seconds per check
	mismatch              string    // a check that disagreed with the anonymizer
	injected              int       // edges the publish added to the input
}

// measureLayers times the precompute's layers on their own, on the
// input, and the obfuscation check GenObf makes once per attempt, on the
// published graph — each repeated, all outside any timed publish.
func (s *session) measureLayers(ctx context.Context, p *publishRun) (*layerSamples, error) {
	root := stage{span: obs.NewSpan("layers"), cpu0: procCPU()}
	s.roots = append(s.roots, root.span)
	defer root.end()
	ls := &layerSamples{injected: p.graph.NumEdges() - p.orig.NumEdges()}

	var uniq, rel []float64
	repeat(root, "uniqueness", func() {
		a0, t0 := runtimeValue(heapAllocsMetric), time.Now()
		privacy.VertexUniqueness(p.orig)
		uniq = append(uniq, time.Since(t0).Seconds())
		ls.uniquenessAlloc = runtimeValue(heapAllocsMetric) - a0
	})
	o := obs.NewObserver()
	est := reliability.Estimator{Samples: s.w.samples, Seed: graphSeed, Workers: s.cfg.workers, Obs: o, Ctx: ctx}
	var relCPU time.Duration
	repeat(root, "relevance", func() {
		c0, t0 := procCPU(), time.Now()
		est.EdgeRelevance(p.orig)
		rel = append(rel, time.Since(t0).Seconds())
		relCPU += procCPU() - c0
	})
	ls.uniqueness, ls.relevance = median(uniq), median(rel)
	ls.relevanceCPUPerWall = relCPU.Seconds() / sum(rel)
	ls.worlds = o.Registry().Snapshot().Counters["mc.worlds_sampled"] / int64(len(rel))

	st := root.child("obfcheck")
	defer st.end()
	prop := privacy.DegreeProperty(p.orig)
	for t0 := time.Now(); len(ls.obfcheck) < 5 || time.Since(t0) < 300*time.Millisecond; {
		c := time.Now()
		rep, err := privacy.CheckObfuscation(p.graph, prop, s.w.k)
		ls.obfcheck = append(ls.obfcheck, time.Since(c).Seconds())
		if err != nil {
			return nil, fmt.Errorf("obfuscation check: %w", err)
		}
		if rep.EpsilonTilde != p.epsilonTilde && ls.mismatch == "" {
			ls.mismatch = fmt.Sprintf("obfuscation check of the published graph gives epsilon~ %v, the anonymizer reported %v",
				rep.EpsilonTilde, p.epsilonTilde)
		}
	}
	return ls, nil
}

// repeat calls fn after a collection, each call under its own child span
// of parent, until it has run three times or for a second in all.
func repeat(parent stage, name string, fn func()) {
	start := time.Now()
	for n := 0; n < 3 && (n == 0 || time.Since(start) < time.Second); n++ {
		runtime.GC()
		st := parent.child(name)
		fn()
		st.end()
	}
}

// layerMetrics reduces a traced run to the per-layer metrics, and adds
// to the report how much of a traced publish its layers cover.
func (s *session) layerMetrics(report map[string]any) (map[string]metric, error) {
	var traced, untraced []*publishRun
	for _, p := range s.runs {
		if p.span != nil {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	ls := s.layers
	if len(traced) == 0 || len(untraced) == 0 || ls == nil {
		return nil, fmt.Errorf("%s: a traced run needs a passing traced and untraced publish", s.w.name)
	}
	pick := func(ps []*publishRun, f func(*publishRun) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	stat := func(f func(searchStats) float64) float64 {
		return pick(traced, func(p *publishRun) float64 { return f(searchStatsOf(p.trace)) })
	}
	tracedWall := pick(traced, func(p *publishRun) float64 { return p.wall.Seconds() })
	untracedWall := pick(untraced, func(p *publishRun) float64 { return p.wall.Seconds() })
	precompute := stat(func(st searchStats) float64 { return st.precompute.Seconds() })
	search := stat(func(st searchStats) float64 { return st.search.Seconds() })
	decode := pick(traced, func(p *publishRun) float64 { return p.decodeS })
	write := pick(traced, func(p *publishRun) float64 { return p.writeS })
	certify := pick(traced, func(p *publishRun) float64 { return p.certifyS })
	anonWall := pick(traced, func(p *publishRun) float64 { return p.anonWall.Seconds() })
	anonCPU := pick(traced, func(p *publishRun) float64 { return p.anonCPU.Seconds() })
	st := searchStatsOf(traced[0].trace)
	obfcheckMS := median(ls.obfcheck) * 1e3

	report["layers"] = map[string]any{
		"traced_publishes":   len(traced),
		"untraced_publishes": len(untraced),
		// Share of a traced publish that its named layers cover.
		"coverage": (decode + precompute + search + write + certify) / tracedWall,
		// Standalone uniqueness plus relevance over the precompute span.
		"precompute_ratio":  (ls.uniqueness + ls.relevance) / precompute,
		"obfcheck_mismatch": ls.mismatch,
	}

	q := s.q
	kindP50 := func(kind string) float64 { return median(seconds(q.service[kind])) }
	return map[string]metric{
		"uncertain.decode_s":                 {decode, "s"},
		"uncertain.write_s":                  {write, "s"},
		"uncertain.out_bytes":                {float64(traced[0].outBytes), "bytes"},
		"privacy.uniqueness_s":               {ls.uniqueness, "s"},
		"privacy.uniqueness_alloc_mb":        {float64(ls.uniquenessAlloc) / mib, "MB"},
		"privacy.obfcheck_ms":                {obfcheckMS, "ms"},
		"reliability.relevance_s":            {ls.relevance, "s"},
		"reliability.relevance_cpu_per_wall": {ls.relevanceCPUPerWall, "ratio"},
		"reliability.worlds":                 {float64(ls.worlds), "count"},
		"reliability.warm_s":                 {median(seconds(q.warm)), "s"},
		"core.precompute_s":                  {precompute, "s"},
		"core.search_s":                      {search, "s"},
		"core.genobf_calls":                  {float64(st.genobfCalls), "count"},
		"core.attempts":                      {float64(st.attempts), "count"},
		"core.accept_ratio":                  {float64(st.accepted) / float64(st.attempts), "ratio"},
		"core.attempt_ms":                    {st.attemptTotal.Seconds() * 1e3 / float64(st.attempts), "ms"},
		"core.alloc_mb":                      {pick(traced, func(p *publishRun) float64 { return float64(p.anonAlloc) / mib }), "MB"},
		"core.cpu_per_wall":                  {anonCPU / anonWall, "ratio"},
		"core.injected_edges":                {float64(ls.injected), "count"},
		"core.obfcheck_share":                {obfcheckMS * float64(st.attempts) / (search * 1e3), "ratio"},
		"testkit.certify_s":                  {certify, "s"},
		"query.knn_ms":                       {kindP50(query.KindKNN) * 1e3, "ms"},
		"query.pair_reliability_us":          {kindP50(query.KindPairReliability) * 1e6, "us"},
		"query.degree_us":                    {kindP50(query.KindDegree) * 1e6, "us"},
		"query.late_p99_ms":                  {quantile(seconds(q.openLate), 0.99) * 1e3, "ms"},
		"query_p99_ms":                       {median(q.openP99) * 1e3, "ms"},
		"runtime.gc_cycles":                  {pick(traced, func(p *publishRun) float64 { return float64(p.gcCycles) }), "count"},
		"trace.overhead_ratio":               {tracedWall / untracedWall, "ratio"},
	}, nil
}

// writeTrace writes every recorded span tree as a Chrome trace.
func (s *session) writeTrace() (string, error) {
	if err := os.MkdirAll(s.cfg.outDir, 0o755); err != nil {
		return "", fmt.Errorf("trace directory: %w", err)
	}
	path := filepath.Join(s.cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", s.w.name, s.cfg.seed))
	snaps := make([]*obs.SpanSnapshot, len(s.roots))
	for i, r := range s.roots {
		snaps[i] = r.SnapshotTree()
	}
	err := traceout.WriteFile(path, snaps, map[string]any{
		"exporter": "perfbench", "workload": s.w.name, "seed": s.cfg.seed,
	})
	return path, err
}

// writeReport keeps the run's report beside its trace.
func (s *session) writeReport(report map[string]any) error {
	if err := os.MkdirAll(s.cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("report directory: %w", err)
	}
	mode := 0
	if s.cfg.traced {
		mode = 1
	}
	path := filepath.Join(s.cfg.outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", s.w.name, s.cfg.seed, mode))
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
