// Command ugquery answers reliability queries over an uncertain graph —
// the workloads an anonymized release is published for.
//
// Usage:
//
//	ugquery -g graph.tsv -pair 3,17            # two-terminal reliability
//	ugquery -g graph.tsv -knn 3 -k 10          # reliability k-NN of vertex 3
//	ugquery -g graph.tsv -relevance -top 10    # most reliability-relevant edges
//	ugquery -g graph.tsv -components           # support components
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"chameleon"
	"chameleon/cmd/internal/runner"
	"chameleon/internal/query"
)

type queryFlags struct {
	gPath      string
	pair       string
	knn        int
	k          int
	relevance  bool
	top        int
	components bool
	samples    int
	seed       uint64
}

func main() {
	var f queryFlags
	flag.StringVar(&f.gPath, "g", "", "uncertain graph (TSV or binary)")
	flag.StringVar(&f.pair, "pair", "", "two-terminal reliability of 'u,v'")
	flag.IntVar(&f.knn, "knn", -1, "reliability k-NN of this vertex")
	flag.IntVar(&f.k, "k", 10, "neighborhood size for -knn")
	flag.BoolVar(&f.relevance, "relevance", false, "rank edges by reliability relevance")
	flag.IntVar(&f.top, "top", 10, "rows to print for -relevance")
	flag.BoolVar(&f.components, "components", false, "list support components")
	flag.IntVar(&f.samples, "samples", 1000, "Monte Carlo samples")
	flag.Uint64Var(&f.seed, "seed", 1, "random seed")
	flag.Parse()

	err := run(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugquery:", err)
		if errors.As(err, new(runner.UsageError)) {
			flag.Usage()
		}
	}
	os.Exit(runner.ExitCode(err))
}

func run(f queryFlags) error {
	if f.gPath == "" {
		return runner.Usagef("-g is required")
	}
	g, err := chameleon.LoadGraph(f.gPath)
	if err != nil {
		return err
	}

	// -pair and -knn share one engine: its label cache samples the worlds
	// once, and both answers are read off the same worlds.
	eng := query.New(g, query.Options{Samples: f.samples, Seed: f.seed, SpanEvery: -1})
	ctx := context.Background()
	ran := false
	if f.pair != "" {
		ran = true
		u, v, err := parsePair(f.pair, g.NumNodes())
		if err != nil {
			return err
		}
		resp, err := eng.Do(ctx, query.Request{Kind: query.KindPairReliability, U: u, V: v})
		if err != nil {
			return err
		}
		fmt.Printf("R(%d,%d) = %.4f\n", u, v, resp.Value)
	}
	if f.knn >= 0 {
		ran = true
		resp, err := eng.Do(ctx, query.Request{Kind: query.KindKNN, U: chameleon.NodeID(f.knn), K: f.k})
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "reliability %d-NN of vertex %d:\n", f.k, f.knn)
		for i, n := range resp.Neighbors {
			fmt.Fprintf(tw, "  %d\t%d\t%.4f\n", i+1, n.Node, n.Reliability)
		}
		tw.Flush()
	}
	if f.relevance {
		ran = true
		rel := chameleon.EdgeRelevance(g, f.samples, f.seed)
		idx := make([]int, len(rel))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return rel[idx[a]] > rel[idx[b]] })
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "most reliability-relevant edges:")
		limit := f.top
		if limit > len(idx) {
			limit = len(idx)
		}
		for i := 0; i < limit; i++ {
			e := g.Edge(idx[i])
			fmt.Fprintf(tw, "  (%d,%d)\tp=%.3f\tERR=%.2f\n", e.U, e.V, e.P, rel[idx[i]])
		}
		tw.Flush()
	}
	if f.components {
		ran = true
		comps := g.SupportComponents()
		fmt.Printf("%d support components; sizes of the largest 10:", len(comps))
		for i, comp := range comps {
			if i == 10 {
				break
			}
			fmt.Printf(" %d", len(comp))
		}
		fmt.Println()
	}
	if !ran {
		return runner.Usagef("nothing to do (pass -pair, -knn, -relevance or -components)")
	}
	return nil
}

func parsePair(s string, n int) (chameleon.NodeID, chameleon.NodeID, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want 'u,v', got %q", s)
	}
	u, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, err
	}
	if u < 0 || v < 0 || u >= n || v >= n {
		return 0, 0, fmt.Errorf("pair (%d,%d) out of range (n=%d)", u, v, n)
	}
	return chameleon.NodeID(u), chameleon.NodeID(v), nil
}
