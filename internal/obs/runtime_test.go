package obs

import (
	"math"
	"runtime"
	"testing"
)

// TestRuntimeSamplerGauges: one Sample publishes plausible values for the
// scalar runtime gauges.
func TestRuntimeSamplerGauges(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg)
	s.Sample()

	snap := reg.Snapshot()
	if g := snap.Gauges[RuntimeGoroutines]; g < 1 {
		t.Fatalf("%s = %v, want >= 1", RuntimeGoroutines, g)
	}
	if g := snap.Gauges[RuntimeHeapBytes]; g <= 0 {
		t.Fatalf("%s = %v, want > 0", RuntimeHeapBytes, g)
	}
	if g := snap.Gauges[RuntimeTotalBytes]; g < snap.Gauges[RuntimeHeapBytes] {
		t.Fatalf("total %v < heap %v", g, snap.Gauges[RuntimeHeapBytes])
	}
	if g := snap.Gauges[RuntimeGomaxprocs]; g != float64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("%s = %v, want %d", RuntimeGomaxprocs, g, runtime.GOMAXPROCS(0))
	}
	if g := snap.Gauges[RuntimeGCCycles]; g < 0 {
		t.Fatalf("%s = %v, want >= 0", RuntimeGCCycles, g)
	}
}

// TestRuntimeSamplerGCPauseDelta: the first Sample only records the
// baseline; after forced GC cycles a later Sample publishes ordered,
// finite pause quantiles over the new pauses.
func TestRuntimeSamplerGCPauseDelta(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg)
	s.Sample() // baseline — must not count process history

	for _, suffix := range []string{".p50", ".p90", ".p99"} {
		if v, ok := reg.Snapshot().Gauges[RuntimeGCPause+suffix]; ok {
			t.Fatalf("baseline sample published %s%s = %v from historical pauses", RuntimeGCPause, suffix, v)
		}
	}

	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	s.Sample()
	snap := reg.Snapshot()
	p50, ok := snap.Gauges[RuntimeGCPause+".p50"]
	if !ok {
		t.Fatal("no GC pause quantiles published after forced GC cycles")
	}
	p90 := snap.Gauges[RuntimeGCPause+".p90"]
	p99 := snap.Gauges[RuntimeGCPause+".p99"]
	if p50 < 0 || p90 < p50 || p99 < p90 {
		t.Fatalf("pause quantiles out of order: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	if math.IsInf(p99, 0) || math.IsNaN(p99) {
		t.Fatalf("pause p99 = %v, want finite", p99)
	}
}

// TestRuntimeSamplerSchedLatency: quantile gauges exist, are ordered, and
// finite once goroutines have been scheduled.
func TestRuntimeSamplerSchedLatency(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg)
	done := make(chan struct{})
	for i := 0; i < 16; i++ {
		go func() { done <- struct{}{} }()
	}
	for i := 0; i < 16; i++ {
		<-done
	}
	s.Sample()
	snap := reg.Snapshot()
	p50 := snap.Gauges[RuntimeSchedLatency+".p50"]
	p90 := snap.Gauges[RuntimeSchedLatency+".p90"]
	p99 := snap.Gauges[RuntimeSchedLatency+".p99"]
	if p50 < 0 || p90 < p50 || p99 < p90 {
		t.Fatalf("latency quantiles out of order: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	if math.IsInf(p99, 0) || math.IsNaN(p99) {
		t.Fatalf("p99 = %v, want finite", p99)
	}
}

// TestRuntimeSamplerNil: a nil registry yields a nil sampler and Sample
// stays a no-op, matching the package's nil-safety convention.
func TestRuntimeSamplerNil(t *testing.T) {
	if s := NewRuntimeSampler(nil); s != nil {
		t.Fatal("nil registry must yield nil sampler")
	}
	var s *RuntimeSampler
	s.Sample() // must not panic
}

// TestBucketMidpoint covers the infinite-edge fallbacks.
func TestBucketMidpoint(t *testing.T) {
	inf := math.Inf(1)
	bounds := []float64{math.Inf(-1), 1, 3, inf}
	for i, want := range []float64{1, 2, 3} {
		if got := bucketMidpoint(bounds, i); got != want {
			t.Fatalf("bucket %d midpoint = %v, want %v", i, got, want)
		}
	}
	if got := bucketMidpoint(bounds, 7); got != 0 {
		t.Fatalf("out-of-range midpoint = %v, want 0", got)
	}
}
