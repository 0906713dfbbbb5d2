// Command perfbench is the repository's end-to-end benchmark: one
// publish-and-query session over a generated uncertain graph.
//
// A session publishes the graph through the library facade — decode its
// sectioned-v2 bytes, anonymize with RSME, write the published graph as
// v2, certify it with the independent checker — several times, then
// serves reads over the same input graph through the query engine, first
// in a closed loop and then in an open loop at a fixed arrival rate.
// Every output is checked. The input graph is fixed; -seed drives the
// requests.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload anon-ba20k --seed 3 --seconds 50 --trace 0
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics of a traced session and writes its spans
// as a Chrome trace (readable by cmd/tracestat) under -out. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the line before it is the run's report (host stamp,
// input sizes, published-output fingerprints, sample counts).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one session and prints its report and
// result. It returns the process exit code: 0 when a result was printed
// (even one that counts failures), 1 when no result could be produced,
// 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of the run's request streams, arrival schedules and query sampling (the graph is fixed)")
	seconds := fs.Float64("seconds", 40, "measured length of the run, in seconds")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the report and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		traced:  *traceFlag == 1,
		outDir:  *out,
		workers: runtime.NumCPU(),
	}
	res, err := runSession(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printResult writes the report line and then the result line the
// benchmark contract reads.
func printResult(w io.Writer, r *sessionResult) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": r.report}); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return enc.Encode(resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
