package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/query"
	"chameleon/internal/reliability"
	"chameleon/internal/uncertain"
)

// querySide is the measured read side of a session.
type querySide struct {
	setup []time.Duration // query.New + Engine.Warm, per set-up
	warm  []time.Duration // Engine.Warm alone, per set-up

	// Per segment of each loop: closed-loop throughput, and open-loop
	// latency quantiles timed from the intended send time.
	closedQPS        []float64
	closedDone       int
	openP50, openP99 []float64 // seconds
	openSamples      []int

	openLate []time.Duration // actual minus intended send time
	service  map[string][]time.Duration

	attempted, failed int
	firstFailure      string
}

func (q *querySide) check(ok bool, format string, args ...any) {
	q.attempted++
	if !ok {
		q.failed++
		if q.firstFailure == "" {
			q.firstFailure = fmt.Sprintf(format, args...)
		}
	}
}

// exchange is one request and the engine's answer.
type exchange struct {
	req  query.Request
	resp query.Response
	err  error
}

func newQuerySide() *querySide {
	return &querySide{service: map[string][]time.Duration{}}
}

// querySegment sets the query engine up over the session's input graph
// (w.setups times, keeping the last), checks a handful of answers
// against an uncached estimator in the first segment, then drives a
// closed loop and an open loop for the given lengths. The engine is
// dropped when the segment ends.
func (s *session) querySegment(ctx context.Context, segment int, closedFor, openFor time.Duration) {
	g := s.in.graph
	q := s.q
	opts := query.Options{Samples: s.w.querySamples, Seed: s.cfg.seed, Workers: s.cfg.workers}
	root := stage{}
	if s.cfg.traced {
		root = stage{span: obs.NewSpan("query"), cpu0: procCPU()}
		root.span.SetAttr("segment", segment)
		s.roots = append(s.roots, root.span)
	}
	defer root.end()

	st := root.child("setup")
	var eng *query.Engine
	for i := 0; i < s.w.setups; i++ {
		eng = nil // collect the previous engine's label matrix first
		runtime.GC()
		ws := st.child("warm")
		t0 := time.Now()
		eng = query.New(g, opts)
		tw := time.Now()
		eng.Warm(ctx)
		q.warm = append(q.warm, time.Since(tw))
		q.setup = append(q.setup, time.Since(t0))
		ws.end()
	}
	st.end()

	// One request per kind, so the first timed request finds no lazy work.
	n := g.NumNodes()
	for _, m := range queryMix {
		req := query.Request{Kind: m.kind, U: 0, V: uncertain.NodeID(n - 1), K: knnK}
		resp, err := eng.Do(ctx, req)
		q.checkResponse(g, req, resp, err)
	}

	if segment == 0 {
		st = root.child("parity")
		plain := reliability.Estimator{Samples: opts.Samples, Seed: opts.Seed, Workers: opts.Workers}
		rng := rand.New(rand.NewPCG(s.cfg.seed, 0x9a417))
		for i := 0; i < parityPairs; i++ {
			u, v := uncertain.NodeID(rng.IntN(n)), uncertain.NodeID(rng.IntN(n))
			resp, err := eng.Do(ctx, query.Request{Kind: query.KindPairReliability, U: u, V: v})
			want := plain.PairReliability(g, u, v)
			q.check(err == nil && math.Float64bits(resp.Value) == math.Float64bits(want),
				"pair_reliability(%d,%d) = %v (err %v), uncached estimator %v", u, v, resp.Value, err, want)
		}
		st.end()
	}

	st = root.child("closed-loop")
	q.closedLoop(ctx, eng, s.cfg.seed, uint64(segment), closedFor)
	st.end()
	st = root.child("open-loop")
	q.openLoop(ctx, eng, s.cfg.seed, uint64(segment), openFor)
	st.end()
}

// closedLoop runs closedClients callers back to back for d.
func (q *querySide) closedLoop(ctx context.Context, eng *query.Engine, seed, segment uint64, d time.Duration) {
	g := eng.Graph()
	results := make([][]exchange, closedClients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs := newRequestStream(seed, 0xc105ed+segment<<8+uint64(c), g.NumNodes())
			for time.Now().Before(deadline) {
				req := reqs.next()
				resp, err := eng.Do(ctx, req)
				results[c] = append(results[c], exchange{req, resp, err})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	done := 0
	for _, rs := range results {
		for _, r := range rs {
			q.checkResponse(g, r.req, r.resp, r.err)
			done++
		}
	}
	q.closedDone += done
	q.closedQPS = append(q.closedQPS, float64(done)/wall.Seconds())
}

// openLoop sends requests on a Poisson schedule at openQPS, each on its
// own goroutine whatever the engine's progress, and times each from its
// intended send time.
func (q *querySide) openLoop(ctx context.Context, eng *query.Engine, seed, segment uint64, d time.Duration) {
	g := eng.Graph()
	type arrival struct {
		exchange
		at         time.Duration // intended send time, from the loop start
		sent, done time.Time
	}
	rng := rand.New(rand.NewPCG(seed, 0x09e4+segment<<8))
	reqs := newRequestStream(seed, 0x09e5+segment<<8, g.NumNodes())
	mean := float64(time.Second) / openQPS
	var sched []arrival
	for t := time.Duration(rng.ExpFloat64() * mean); t < d; t += time.Duration(rng.ExpFloat64() * mean) {
		sched = append(sched, arrival{exchange: exchange{req: reqs.next()}, at: t})
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := range sched {
		if wait := time.Until(start.Add(sched[i].at)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(a *arrival) {
			defer wg.Done()
			a.sent = time.Now()
			a.resp, a.err = eng.Do(ctx, a.req)
			a.done = time.Now()
		}(&sched[i])
	}
	wg.Wait()

	lat := make([]float64, len(sched))
	for i, a := range sched {
		intended := start.Add(a.at)
		lat[i] = a.done.Sub(intended).Seconds()
		q.openLate = append(q.openLate, a.sent.Sub(intended))
		q.service[a.req.Kind] = append(q.service[a.req.Kind], a.done.Sub(a.sent))
		q.checkResponse(g, a.req, a.resp, a.err)
	}
	q.openP50 = append(q.openP50, quantile(lat, 0.50))
	q.openP99 = append(q.openP99, quantile(lat, 0.99))
	q.openSamples = append(q.openSamples, len(sched))
}

// checkResponse counts one answered request and checks that it carries
// no error and an answer in range for its kind.
func (q *querySide) checkResponse(g *uncertain.Graph, req query.Request, resp query.Response, err error) {
	if err != nil {
		q.check(false, "%s(%d,%d): %v", req.Kind, req.U, req.V, err)
		return
	}
	switch req.Kind {
	case query.KindPairReliability:
		q.check(resp.Value >= 0 && resp.Value <= 1,
			"pair_reliability(%d,%d) = %v outside [0,1]", req.U, req.V, resp.Value)
	case query.KindDegree:
		q.check(resp.Value >= 0 && resp.Value <= float64(g.Degree(req.U)),
			"degree(%d) = %v outside [0,%d]", req.U, resp.Value, g.Degree(req.U))
	case query.KindKNN:
		q.check(validNeighbors(g, req, resp.Neighbors),
			"knn(%d,k=%d) answer %v out of range or order", req.U, req.K, resp.Neighbors)
	default:
		q.check(false, "unexpected kind %q", req.Kind)
	}
}

// validNeighbors reports whether a knn answer has at most k distinct
// in-range vertices other than the source, with reliabilities in (0,1]
// in non-increasing order.
func validNeighbors(g *uncertain.Graph, req query.Request, ns []query.Neighbor) bool {
	if len(ns) > req.K {
		return false
	}
	seen := make(map[uncertain.NodeID]bool, len(ns))
	for i, nb := range ns {
		if nb.Node < 0 || int(nb.Node) >= g.NumNodes() || nb.Node == req.U || seen[nb.Node] {
			return false
		}
		if nb.Reliability <= 0 || nb.Reliability > 1 || (i > 0 && nb.Reliability > ns[i-1].Reliability) {
			return false
		}
		seen[nb.Node] = true
	}
	return true
}
