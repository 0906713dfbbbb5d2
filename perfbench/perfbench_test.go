package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chameleon"
)

// miniature shrinks a workload to a run of about a second: the same
// session, over a few hundred vertices with small Monte Carlo budgets.
func miniature(w workload) workload {
	w.nodes = 300
	if w.perVertex > 5 {
		w.nodes = 150
	}
	w.k = 4
	w.epsilon = 0.1
	w.samples = 60
	w.nominalPublish = 100 * time.Millisecond
	w.querySamples = 40
	w.setups = 2
	return w
}

func miniConfig(seed uint64, traced bool, dir string) config {
	return config{seed: seed, seconds: 0.6, traced: traced, outDir: dir, workers: 2}
}

// declaredUnits reads the metric names and units BENCHMARK.json, at the
// repository root, declares in one of its metric lists.
func declaredUnits(t *testing.T, list string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl map[string]json.RawMessage
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(decl[list], &metrics); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range metrics {
		units[m.Name] = m.Unit
	}
	if len(units) == 0 {
		t.Fatalf("BENCHMARK.json declares no %s metrics", list)
	}
	return units
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, want %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
	}
}

func TestMiniatureEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w.name+map[bool]string{false: "/end-to-end", true: "/per-layer"}[traced], func(t *testing.T) {
				res, err := runSession(context.Background(), miniature(w), miniConfig(3, traced, t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted < 1 {
					t.Fatalf("attempted %d, failed %d; report %v", res.attempted, res.failed, res.report)
				}
				list := "end_to_end"
				if traced {
					list = "per_layer"
				}
				checkMetrics(t, res.metrics, declaredUnits(t, list))
				for _, name := range []string{"anonymize_s", "cpu_s", "setup_s", "query_qps", "core.genobf_calls"} {
					if m, ok := res.metrics[name]; ok && m.Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestForgedPublishCountsAsFailure: a publish whose graph cannot be
// certified is a failed operation, not a crash and not a pass.
func TestForgedPublishCountsAsFailure(t *testing.T) {
	forge := func(ctx context.Context, g *chameleon.Graph, o chameleon.Options) (*chameleon.Result, error) {
		res, err := chameleon.AnonymizeContext(ctx, g, o)
		if err != nil {
			return nil, err
		}
		// Every edge dropped: no published vertex has the degree the
		// adversary knows, so no vertex hides.
		res.Graph = chameleon.NewGraph(g.NumNodes())
		return res, nil
	}
	w := miniature(workloads[0])
	cfg := miniConfig(5, false, t.TempDir())
	cfg.anonymize = forge
	_, err := runSession(context.Background(), w, cfg)
	if err == nil || !strings.Contains(err.Error(), "certificate invalid") {
		t.Fatalf("runSession = %v, want every publish failing certification", err)
	}

	// One forged publish among honest ones is counted, and the run
	// reports incorrect.
	calls := 0
	cfg.anonymize = func(ctx context.Context, g *chameleon.Graph, o chameleon.Options) (*chameleon.Result, error) {
		calls++
		if calls == 2 {
			return forge(ctx, g, o)
		}
		return chameleon.AnonymizeContext(ctx, g, o)
	}
	res, err := runSession(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Fatalf("failed = %d, want 1 (the forged publish)", res.failed)
	}
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != 1 || last.Attempted <= 1 {
		t.Fatalf("result line %+v, want correct=false failed=1", last)
	}
}

// TestSeedsGiveDifferentInputs: two seeds draw different request
// streams, and their runs report under the same metric names. The graph
// is the same for every seed (see graphSeed).
func TestSeedsGiveDifferentInputs(t *testing.T) {
	w := miniature(workloads[0])
	ra, rb := newRequestStream(1, 9, w.nodes), newRequestStream(2, 9, w.nodes)
	same := true
	for i := 0; i < 20; i++ {
		if ra.next() != rb.next() {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 drew the same requests")
	}
	again := newRequestStream(1, 9, w.nodes)
	ra = newRequestStream(1, 9, w.nodes)
	for i := 0; i < 20; i++ {
		if ra.next() != again.next() {
			t.Fatal("seed 1 drew two different request streams")
		}
	}

	for _, seed := range []uint64{1, 2} {
		res, err := runSession(context.Background(), w, miniConfig(seed, false, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res.metrics, declaredUnits(t, "end_to_end"))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "anon-ba20k", "--trace", "2"},
		{"--workload", "anon-ba20k", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero code and no result", args, code, out.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
