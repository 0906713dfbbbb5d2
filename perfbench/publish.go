package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"chameleon"
	"chameleon/internal/core"
	"chameleon/internal/obs"
	"chameleon/internal/testkit"
	"chameleon/internal/uncertain"
)

// anonymizeFunc is the publish step under measurement; tests substitute
// one that forges its output.
type anonymizeFunc func(ctx context.Context, g *chameleon.Graph, o chameleon.Options) (*chameleon.Result, error)

// publishRun is one publish: decode → anonymize → write → certify, timed
// as one interval, plus the checks made on its output afterwards.
type publishRun struct {
	wall, cpu time.Duration
	peakHeap  uint64 // bytes held by heap objects, at most
	gcCycles  uint64

	// The anonymize call alone.
	anonWall, anonCPU time.Duration
	anonAlloc         uint64 // bytes allocated

	// What was published.
	sigma, epsilonTilde float64
	trace               *obs.Span // the anonymizer's σ-search trace
	publishedEdges      int
	outBytes            int    // size of the published graph as sectioned v2
	hash                uint64 // fingerprint of the published edge list

	failure  string    // the first failed check; empty when all passed
	span     *obs.Span // traced publishes: the "publish" span tree
	decodeS  float64   // traced stage times, seconds
	writeS   float64
	certifyS float64

	// The decoded input and the published graph, held until release.
	orig, graph *uncertain.Graph
}

// release drops the graphs, so later phases run on a small heap.
func (p *publishRun) release() { p.orig, p.graph = nil, nil }

func (p *publishRun) fail(format string, args ...any) *publishRun {
	if p.failure == "" {
		p.failure = fmt.Sprintf(format, args...)
	}
	return p
}

// publishOnce runs one publish of the session's input. With traced set
// it records a "publish" span tree whose "anonymize" stage adopts the
// trace the anonymizer returns.
func (s *session) publishOnce(ctx context.Context, traced bool) *publishRun {
	w := s.w
	p := &publishRun{}
	root := stage{}
	if traced {
		root = stage{span: obs.NewSpan("publish"), cpu0: procCPU()}
		p.span = root.span
	}

	// Start every publish from a collected heap, outside the interval.
	runtime.GC()
	gc0 := runtimeValue(gcCyclesMetric)
	heap := watchHeap()
	abort := func(format string, args ...any) *publishRun {
		heap.Stop()
		root.end()
		return p.fail(format, args...)
	}
	cpu0 := procCPU()
	t0 := time.Now()

	st := root.child("decode")
	g, err := uncertain.ReadAuto(bytes.NewReader(s.in.encoded))
	st.end()
	p.decodeS = st.seconds()
	if err != nil {
		return abort("decode input: %v", err)
	}
	p.orig = g

	st = root.child("anonymize")
	a0, ac0, at0 := runtimeValue(heapAllocsMetric), procCPU(), time.Now()
	res, err := s.cfg.anonymize(ctx, g, chameleon.Options{
		K: w.k, Epsilon: w.epsilon, Method: chameleon.MethodRSME,
		Samples: w.samples, Seed: graphSeed, Workers: s.cfg.workers,
	})
	p.anonWall, p.anonCPU = time.Since(at0), procCPU()-ac0
	p.anonAlloc = runtimeValue(heapAllocsMetric) - a0
	if res != nil && st.span != nil {
		st.span.Adopt(res.Trace())
	}
	st.end()
	if err != nil || res == nil || res.Graph == nil {
		return abort("anonymize: %v", err)
	}
	p.graph = res.Graph
	p.sigma, p.epsilonTilde, p.trace = res.Sigma, res.EpsilonTilde, res.Trace()
	p.publishedEdges = res.Graph.NumEdges()

	st = root.child("write")
	var out bytes.Buffer
	err = uncertain.WriteBinaryV2(&out, res.Graph)
	st.end()
	p.writeS = st.seconds()
	if err != nil {
		return abort("write published graph: %v", err)
	}
	p.outBytes = out.Len()

	st = root.child("certify")
	cert, certErr := testkit.CheckCertificate(g, res.Graph, w.k, w.epsilon)
	st.end()
	p.certifyS = st.seconds()

	p.wall, p.cpu = time.Since(t0), procCPU()-cpu0
	root.end()
	p.peakHeap = heap.Stop()
	p.gcCycles = runtimeValue(gcCyclesMetric) - gc0

	// Output checks, outside the timed interval.
	p.hash = core.GraphHash(res.Graph)
	switch {
	case certErr != nil:
		p.fail("certify: %v", certErr)
	case !cert.Valid:
		p.fail("certificate invalid: epsilon~ %.6g > %.6g (%d of %d vertices under-obfuscated)",
			cert.EpsilonTilde, w.epsilon, cert.NonObfuscated, cert.Vertices)
	case res.Graph.NumNodes() != g.NumNodes():
		p.fail("published graph has %d nodes, input %d", res.Graph.NumNodes(), g.NumNodes())
	}
	back, err := uncertain.ReadAuto(&out)
	switch {
	case err != nil:
		p.fail("decode published v2 bytes: %v", err)
	case !back.Equal(res.Graph):
		p.fail("published v2 bytes decode to a different graph")
	}
	return p
}

// searchStats summarises the σ-search from the anonymizer's trace.
type searchStats struct {
	precompute, search time.Duration
	genobfCalls        int
	attempts, accepted int
	attemptTotal       time.Duration
}

func searchStatsOf(t *obs.Span) searchStats {
	var st searchStats
	if t == nil {
		return st
	}
	if pre := t.Find("precompute"); pre != nil {
		st.precompute = pre.Duration()
	}
	for _, name := range []string{"exponential-search", "bisection"} {
		if ph := t.Find(name); ph != nil {
			st.search += ph.Duration()
		}
	}
	st.genobfCalls = len(t.FindAll("genobf"))
	for _, a := range t.FindAll("attempt") {
		st.attempts++
		st.attemptTotal += a.Duration()
		if ok, _ := a.Attr("ok"); ok == true {
			st.accepted++
		}
	}
	return st
}
