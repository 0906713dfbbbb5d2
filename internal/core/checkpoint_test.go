package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"chameleon/internal/uncertain"
)

// stepCtx is a deterministic cancellation source: it reports itself
// cancelled starting from the limit-th Err() poll. With a variant that
// skips Monte Carlo precompute (ME/Boldi), Err() is polled at a fixed,
// reproducible sequence of points — once after precompute, once per GenObf
// attempt, once per call wrap-up — so a given limit always interrupts the
// search at the same spot.
type stepCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
	done  chan struct{}
}

func newStepCtx(limit int64) *stepCtx {
	return &stepCtx{Context: context.Background(), limit: limit, done: make(chan struct{})}
}

func (c *stepCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func (c *stepCtx) Done() <-chan struct{} { return c.done }

// ckParams configures a search long enough to interrupt at interesting
// depths: K=40 on the 250-node test graph needs real noise, so the
// exponential phase runs ~5 doublings and the bisection ~10 steps (about
// 90 deterministic context polls end to end).
func ckParams(path string) Params {
	return Params{
		K: 40, Epsilon: 0.04, Samples: 60, Seed: 11, Variant: ME,
		CheckpointPath: path,
	}
}

func encodeGraph(t *testing.T, g *uncertain.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := uncertain.WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeBitIdentical is the core checkpoint/resume guarantee: for a
// range of interruption points — mid-exponential-search, mid-bisection,
// deep into the search — resuming from the written checkpoint yields a
// result bit-identical (graph bytes, sigma, epsilon, effort counters) to
// the uninterrupted run.
func TestResumeBitIdentical(t *testing.T) {
	g := testGraph(t, 5)
	full, err := Anonymize(g, ckParams(""))
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := encodeGraph(t, full.Graph)

	for _, limit := range []int64{2, 8, 20, 45, 80} {
		ckPath := filepath.Join(t.TempDir(), "search.ckpt")
		p := ckParams(ckPath)
		partial, err := AnonymizeContext(newStepCtx(limit), g, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: interrupted run error = %v, want context.Canceled", limit, err)
		}
		if partial == nil {
			t.Fatalf("limit %d: interrupted run must return a partial result", limit)
		}
		ck, err := LoadCheckpoint(ckPath)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}

		p.Resume = ck
		resumed, err := AnonymizeContext(context.Background(), g, p)
		if err != nil {
			t.Fatalf("limit %d: resumed run: %v", limit, err)
		}
		if resumed.Sigma != full.Sigma || resumed.EpsilonTilde != full.EpsilonTilde {
			t.Errorf("limit %d: resumed (sigma=%v, eps~=%v) != full (sigma=%v, eps~=%v)",
				limit, resumed.Sigma, resumed.EpsilonTilde, full.Sigma, full.EpsilonTilde)
		}
		if resumed.GenObfCalls != full.GenObfCalls || resumed.Attempts != full.Attempts {
			t.Errorf("limit %d: resumed effort (%d calls, %d attempts) != full (%d, %d)",
				limit, resumed.GenObfCalls, resumed.Attempts, full.GenObfCalls, full.Attempts)
		}
		if !bytes.Equal(encodeGraph(t, resumed.Graph), fullBytes) {
			t.Errorf("limit %d: resumed graph bytes differ from uninterrupted run", limit)
		}
		// The completed resume must clean its checkpoint up.
		if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("limit %d: checkpoint survived a completed run (stat err %v)", limit, err)
		}
	}
}

// TestInterruptReturnsBestSoFar: once the exponential phase has found any
// feasible obfuscation, an interrupt mid-bisection still hands the caller
// a usable graph.
func TestInterruptReturnsBestSoFar(t *testing.T) {
	g := testGraph(t, 5)
	// Limit 45 is deep enough to be in bisection for this graph/seed (the
	// bit-identical test above exercises the same point).
	partial, err := AnonymizeContext(newStepCtx(45), g, ckParams(""))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if partial.Graph == nil {
		t.Fatal("interrupt after a feasible sigma was found must return the best-so-far graph")
	}
	if partial.EpsilonTilde > 0.04 {
		t.Fatalf("best-so-far eps~ = %v exceeds the tolerance", partial.EpsilonTilde)
	}
}

func TestAnonymizeContextPreCancelled(t *testing.T) {
	g := testGraph(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, variant := range []Variant{RSME, ME} {
		p := ckParams("")
		p.Variant = variant
		res, err := AnonymizeContext(ctx, g, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error = %v, want context.Canceled", variant, err)
		}
		if res != nil && res.Graph != nil {
			t.Fatalf("%v: pre-cancelled run produced a graph", variant)
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	g := testGraph(t, 5)
	ckPath := filepath.Join(t.TempDir(), "search.ckpt")
	p := ckParams(ckPath)
	if _, err := AnonymizeContext(newStepCtx(8), g, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup: %v", err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("different graph", func(t *testing.T) {
		other := testGraph(t, 6)
		p := ckParams("")
		p.Resume = ck
		if _, err := AnonymizeContext(context.Background(), other, p); err == nil {
			t.Fatal("resume against a different graph must fail")
		}
	})
	t.Run("different params", func(t *testing.T) {
		p := ckParams("")
		p.Resume = ck
		p.Seed++
		if _, err := AnonymizeContext(context.Background(), g, p); err == nil {
			t.Fatal("resume with a different seed must fail")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := *ck
		bad.Version = CheckpointVersion + 1
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := bad.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil {
			t.Fatal("version mismatch must fail to load")
		}
	})
	t.Run("bad phase", func(t *testing.T) {
		bad := *ck
		bad.Phase = "warp"
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := bad.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil {
			t.Fatal("unknown phase must fail to load")
		}
	})
}

// TestPeriodicCheckpointCadence: -checkpoint-every style runs write during
// the search (observable mid-run) and clean up on completion.
func TestPeriodicCheckpointCadence(t *testing.T) {
	g := testGraph(t, 5)
	ckPath := filepath.Join(t.TempDir(), "search.ckpt")
	p := ckParams(ckPath)
	p.CheckpointEvery = 1

	// Interrupt late: the periodic cadence must already have produced a
	// loadable checkpoint even before the interrupt flush (checkpoint file
	// content is then overwritten by the interrupt write, which is fine).
	if _, err := AnonymizeContext(newStepCtx(20), g, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup: %v", err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.GenObfCalls == 0 {
		t.Fatal("checkpoint should record completed genobf calls")
	}
	if len(ck.Steps) != ck.GenObfCalls {
		t.Fatalf("step log has %d entries for %d calls", len(ck.Steps), ck.GenObfCalls)
	}

	// A run allowed to finish removes the checkpoint.
	if _, err := AnonymizeContext(context.Background(), g, p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint survived a completed run (stat err %v)", err)
	}
}

func TestGraphHashSensitivity(t *testing.T) {
	g := testGraph(t, 5)
	h1 := GraphHash(g)
	if h1 != GraphHash(g.Clone()) {
		t.Fatal("hash must be stable across clones")
	}
	mod := g.Clone()
	if err := mod.SetProb(0, 0.123456789); err != nil {
		t.Fatal(err)
	}
	if GraphHash(mod) == h1 {
		t.Fatal("probability change must change the hash")
	}

	ulp := g.Clone()
	if err := ulp.SetProb(3, math.Nextafter(ulp.Edge(3).P, 1)); err != nil {
		t.Fatal(err)
	}
	if GraphHash(ulp) == h1 {
		t.Fatal("a one-ulp probability change must change the hash")
	}

	grown := g.Clone()
	for v := uncertain.NodeID(1); ; v++ {
		if !grown.HasEdge(0, v) {
			grown.MustAddEdge(0, v, 0.5)
			break
		}
	}
	if GraphHash(grown) == h1 {
		t.Fatal("adding an edge must change the hash")
	}
}

// TestGraphHashPinned pins GraphHash to the values earlier builds
// computed by hashing the v1 file encoding. Checkpoints on disk and
// benchmark reports record these hashes, so the canonical edge stream must
// reproduce them exactly.
func TestGraphHashPinned(t *testing.T) {
	small := uncertain.New(6)
	small.MustAddEdge(0, 1, 0.5)
	small.MustAddEdge(0, 3, 1)
	small.MustAddEdge(1, 2, 0.123456789)
	small.MustAddEdge(2, 5, 1e-9)
	small.MustAddEdge(3, 4, 0.7071067811865476)
	for _, c := range []struct {
		name string
		g    *uncertain.Graph
		want uint64
	}{
		{"5 edges", small, 0x73df980d79780e23},
		{"250-node test graph", testGraph(t, 5), 0x3783a6666e6df4dc},
	} {
		if got := GraphHash(c.g); got != c.want {
			t.Errorf("%s: GraphHash = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestResumeFromLegacyV1Checkpoint: testdata/legacy_v1_checkpoint.json
// was written by an earlier build, which embedded the best graph as v1,
// interrupted mid-bisection (ckParams on testGraph(5), context poll limit
// 45). Resuming from it must still finish bit-identically to an
// uninterrupted run.
func TestResumeFromLegacyV1Checkpoint(t *testing.T) {
	g := testGraph(t, 5)
	full, err := Anonymize(g, ckParams(""))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint("testdata/legacy_v1_checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.BestGraph) < 8 || binary.LittleEndian.Uint32(ck.BestGraph[4:]) != 1 {
		t.Fatal("the fixture's best_graph is not a v1 encoding")
	}
	p := ckParams("")
	p.Resume = ck
	resumed, err := AnonymizeContext(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Sigma != full.Sigma || resumed.EpsilonTilde != full.EpsilonTilde {
		t.Errorf("resumed (sigma=%v, eps~=%v) != full (sigma=%v, eps~=%v)",
			resumed.Sigma, resumed.EpsilonTilde, full.Sigma, full.EpsilonTilde)
	}
	if resumed.GenObfCalls != full.GenObfCalls || resumed.Attempts != full.Attempts {
		t.Errorf("resumed effort (%d calls, %d attempts) != full (%d, %d)",
			resumed.GenObfCalls, resumed.Attempts, full.GenObfCalls, full.Attempts)
	}
	if !bytes.Equal(encodeGraph(t, resumed.Graph), encodeGraph(t, full.Graph)) {
		t.Error("resumed graph bytes differ from the uninterrupted run")
	}
}
