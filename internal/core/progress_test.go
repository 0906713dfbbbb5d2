package core

import (
	"slices"
	"testing"

	"chameleon/internal/obs"
)

func TestBisectionSteps(t *testing.T) {
	cases := []struct {
		width, tol float64
		want       int
	}{
		{0.5, 1e-3, 9}, // ceil(log2(500)) = 9
		{1, 1, 0},      // already within tolerance
		{0.001, 0.01, 0},
		{1, 0.5, 1},
		{1, 0, 0}, // degenerate tolerance: treat as done
	}
	for _, c := range cases {
		if got := bisectionSteps(c.width, c.tol); got != c.want {
			t.Errorf("bisectionSteps(%v, %v) = %d, want %d", c.width, c.tol, got, c.want)
		}
	}
}

// TestAnonymizeProgressGauges: a full search leaves run.progress pinned at
// 1 with a zero ETA, having published monotone-meaningful values on the
// way (we check the terminal state plus that the gauges exist at all —
// the trajectory itself is covered by the cursor math above).
func TestAnonymizeProgressGauges(t *testing.T) {
	g := testGraph(t, 3)
	o := obs.NewObserver()
	res, err := Anonymize(g, Params{
		K: 8, Epsilon: 0.04, Samples: 150, Seed: 42, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Registry().Snapshot()
	p, ok := snap.Gauges[obs.ProgressGauge]
	if !ok || p != 1 {
		t.Fatalf("%s = %v (present=%v), want 1", obs.ProgressGauge, p, ok)
	}
	if eta := snap.Gauges[obs.ETAGauge]; eta != 0 {
		t.Fatalf("%s = %v after completion, want 0", obs.ETAGauge, eta)
	}
	// The deeper search-forensics attrs on the trace.
	if _, ok := res.Trace.Find("bisection").Attr("steps"); !ok {
		t.Error("bisection span missing the steps attr")
	}
	if _, ok := res.Trace.Find("exponential-search").Attr("doublings"); !ok {
		t.Error("exponential-search span missing the doublings attr")
	}
	// The precompute splits into its three layers, in order.
	var layers []string
	for _, c := range res.Trace.Find("precompute").Children {
		layers = append(layers, c.Name)
	}
	if want := []string{"uniqueness", "relevance", "weights"}; !slices.Equal(layers, want) {
		t.Errorf("precompute children = %v, want %v", layers, want)
	}
	gsp := res.Trace.Find("genobf")
	if gsp == nil {
		t.Fatal("no genobf span")
	}
	if v, ok := gsp.Attr("call"); !ok || v.(int) != 1 {
		t.Errorf("first genobf call attr = %v (present=%v), want 1", v, ok)
	}
}

// TestProgressWindowMapping: an outer harness's base/span slice maps the
// search fraction into its slot of the bar and suppresses the ETA gauge,
// which the harness owns.
func TestProgressWindowMapping(t *testing.T) {
	g := testGraph(t, 3)
	o := obs.NewObserver()
	_, err := Anonymize(g, Params{
		K: 8, Epsilon: 0.04, Samples: 150, Seed: 42, Obs: o,
		ProgressBase: 0.25, ProgressSpan: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Registry().Snapshot()
	if p := snap.Gauges[obs.ProgressGauge]; p != 0.5 {
		t.Fatalf("windowed terminal progress = %v, want base+span = 0.5", p)
	}
	if _, ok := snap.Gauges[obs.ETAGauge]; ok {
		t.Fatal("windowed search must not publish the ETA gauge")
	}
}

// TestAnonymizeProgressNilObserver: the plumbing must stay nil-safe.
func TestAnonymizeProgressNilObserver(t *testing.T) {
	g := testGraph(t, 3)
	if _, err := Anonymize(g, Params{K: 8, Epsilon: 0.04, Samples: 150, Seed: 42}); err != nil {
		t.Fatal(err)
	}
}
