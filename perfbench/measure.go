package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chameleon/internal/obs"
)

// Runtime metrics the benchmark reads.
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	heapAllocsMetric  = "/gc/heap/allocs:bytes"
	gcCyclesMetric    = "/gc/cycles/total:gc-cycles"
)

// heapPollInterval is how often the heap watcher samples the heap.
const heapPollInterval = time.Millisecond

// procCPU returns the CPU time, user plus system, the process has used.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// getrusage(RUSAGE_SELF) fails only on a bad pointer.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeValue reads one cumulative or instantaneous uint64 runtime
// metric.
func runtimeValue(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the bytes held by heap objects until stopped and
// keeps the largest value seen.
type heapWatch struct {
	stop chan struct{}
	done chan uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		var peak uint64
		sample := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		t := time.NewTicker(heapPollInterval)
		defer t.Stop()
		sample()
		for {
			select {
			case <-t.C:
				sample()
			case <-h.stop:
				sample()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// Stop ends the watch and returns the peak in bytes.
func (h *heapWatch) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// stage is one traced layer call: a span plus the process CPU sampled
// at its boundaries. A stage whose span is nil records nothing, which is
// how the untraced runs pass through the same code.
type stage struct {
	span *obs.Span
	cpu0 time.Duration
}

// child starts a stage nested under s.
func (s stage) child(name string) stage {
	if s.span == nil {
		return stage{}
	}
	return stage{span: s.span.StartChild(name), cpu0: procCPU()}
}

// end records the stage's CPU time and ends its span.
func (s stage) end() {
	if s.span == nil {
		return
	}
	s.span.SetAttr("cpu_s", (procCPU() - s.cpu0).Seconds())
	s.span.End()
}

// seconds is the stage's wall time (0 when untraced).
func (s stage) seconds() float64 { return s.span.Duration().Seconds() }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

const mib = 1 << 20

// hostStamp describes the machine and toolchain a run measured on.
func hostStamp() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// stealTime returns the CPU time the hypervisor has taken from this
// machine's processors since boot, from /proc/stat (0 where there is
// none). A run's share of it says how contended its host was.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	// /proc/stat counts in USER_HZ, 100 per second on Linux.
	return time.Duration(ticks) * 10 * time.Millisecond
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
