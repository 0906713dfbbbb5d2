package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Names of the gauges the runtime sampler publishes. The two distribution
// names are prefixes: each publishes .p50, .p90 and .p99 gauges.
const (
	RuntimeGoroutines   = "runtime.goroutines"
	RuntimeGomaxprocs   = "runtime.gomaxprocs"
	RuntimeHeapBytes    = "runtime.heap_bytes"
	RuntimeTotalBytes   = "runtime.total_bytes"
	RuntimeGCCycles     = "runtime.gc_cycles"
	RuntimeGCPause      = "runtime.gc_pause_seconds"
	RuntimeSchedLatency = "runtime.sched_latency_seconds"
)

// RuntimeSampler reads the runtime/metrics package and publishes Go
// runtime health — goroutines, heap, GC pauses, scheduler latency — into
// a Registry, from which the expose server's Prometheus endpoint picks
// them up like any other gauge. Sampling is pull-based: the caller (the
// expose differ tick) invokes Sample at its own cadence, so the sampler
// adds no goroutine and no overhead when telemetry is off.
//
// GC pauses and scheduler latencies arrive from the runtime as cumulative
// histograms; Sample summarizes each into p50/p90/p99 gauges computed
// directly from the distribution. The GC pause quantiles cover only the
// pauses since the first Sample: pauses from before the sampler existed
// are not this run's signal.
type RuntimeSampler struct {
	reg     *Registry
	samples []metrics.Sample
	// basePause holds the GC pause bucket counts of the first Sample,
	// aligned with the runtime histogram's bucket layout.
	basePause []uint64
}

// NewRuntimeSampler returns a sampler publishing into reg. A nil registry
// yields a nil sampler, on which Sample is a no-op.
func NewRuntimeSampler(reg *Registry) *RuntimeSampler {
	if reg == nil {
		return nil
	}
	s := &RuntimeSampler{reg: reg}
	for _, name := range []string{
		"/sched/goroutines:goroutines",
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/total:bytes",
		"/gc/cycles/total:gc-cycles",
		"/gc/pauses:seconds",
		"/sched/latencies:seconds",
	} {
		s.samples = append(s.samples, metrics.Sample{Name: name})
	}
	return s
}

// Sample reads the runtime metrics once and updates the registry.
func (s *RuntimeSampler) Sample() {
	if s == nil {
		return
	}
	metrics.Read(s.samples)
	for _, m := range s.samples {
		switch m.Name {
		case "/sched/goroutines:goroutines":
			s.reg.Gauge(RuntimeGoroutines).Set(sampleFloat(m.Value))
		case "/memory/classes/heap/objects:bytes":
			s.reg.Gauge(RuntimeHeapBytes).Set(sampleFloat(m.Value))
		case "/memory/classes/total:bytes":
			s.reg.Gauge(RuntimeTotalBytes).Set(sampleFloat(m.Value))
		case "/gc/cycles/total:gc-cycles":
			s.reg.Gauge(RuntimeGCCycles).Set(sampleFloat(m.Value))
		case "/gc/pauses:seconds":
			s.samplePauses(m.Value)
		case "/sched/latencies:seconds":
			s.sampleSchedLatency(m.Value)
		}
	}
	s.reg.Gauge(RuntimeGomaxprocs).Set(float64(runtime.GOMAXPROCS(0)))
}

func sampleFloat(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	default:
		return 0
	}
}

// samplePauses publishes GC pause quantile gauges over the pauses since
// the first call: the cumulative runtime counts minus the counts that call
// recorded as its baseline.
func (s *RuntimeSampler) samplePauses(v metrics.Value) {
	h := float64Histogram(v)
	if h == nil {
		return
	}
	if len(s.basePause) != len(h.Counts) {
		// First sample (or a layout change): record the baseline only.
		s.basePause = append(s.basePause[:0], h.Counts...)
		return
	}
	since := &metrics.Float64Histogram{Buckets: h.Buckets, Counts: make([]uint64, len(h.Counts))}
	for i, c := range h.Counts {
		since.Counts[i] = c - s.basePause[i]
	}
	s.publishQuantiles(RuntimeGCPause, since)
}

// sampleSchedLatency publishes goroutine scheduling latency quantile
// gauges from the cumulative runtime distribution.
func (s *RuntimeSampler) sampleSchedLatency(v metrics.Value) {
	if h := float64Histogram(v); h != nil {
		s.publishQuantiles(RuntimeSchedLatency, h)
	}
}

// float64Histogram unwraps a histogram-valued runtime metric, or returns
// nil when v holds no buckets.
func float64Histogram(v metrics.Value) *metrics.Float64Histogram {
	if v.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := v.Float64Histogram()
	if h == nil || len(h.Counts) == 0 {
		return nil
	}
	return h
}

// publishQuantiles sets the name.p50/.p90/.p99 gauges from h. An empty
// distribution publishes nothing.
func (s *RuntimeSampler) publishQuantiles(name string, h *metrics.Float64Histogram) {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return
	}
	for _, q := range []struct {
		suffix string
		p      float64
	}{
		{".p50", 0.50},
		{".p90", 0.90},
		{".p99", 0.99},
	} {
		s.reg.Gauge(name + q.suffix).Set(histQuantile(h, total, q.p))
	}
}

// histQuantile returns the q-quantile of a runtime Float64Histogram,
// reading each bucket at its midpoint.
func histQuantile(h *metrics.Float64Histogram, total uint64, q float64) float64 {
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return bucketMidpoint(h.Buckets, i)
		}
	}
	return bucketMidpoint(h.Buckets, len(h.Counts)-1)
}

// bucketMidpoint returns a representative value for bucket i of a runtime
// histogram with len(Counts)+1 boundaries. Infinite edges fall back to the
// finite neighbor.
func bucketMidpoint(bounds []float64, i int) float64 {
	if i < 0 || i+1 >= len(bounds) {
		return 0
	}
	lo, hi := bounds[i], bounds[i+1]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, +1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, +1):
		return lo
	default:
		return (lo + hi) / 2
	}
}
