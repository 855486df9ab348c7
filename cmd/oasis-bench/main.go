// Command oasis-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	oasis-bench                      # run every experiment
//	oasis-bench -experiment fig8     # one experiment
//	oasis-bench -runs 5              # average 5 simulation days per point
//	oasis-bench -quick               # restricted sweeps for a fast pass
//	oasis-bench -list                # list experiment identifiers
//	oasis-bench -experiment cluster -json BENCH_cluster.json   # a benchmark artifact
//
// The transport benchmark of record is bench/ (bash bench/run.sh); see
// PERFORMANCE.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"oasis/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oasis-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id (see -list) or 'all'")
		seed       = fs.Uint64("seed", 42, "random seed")
		runs       = fs.Int("runs", 1, "simulation days averaged per cluster data point")
		quick      = fs.Bool("quick", false, "restrict sweeps for a fast pass")
		list       = fs.Bool("list", false, "list experiment identifiers and exit")
		outDir     = fs.String("out", "", "also write each report to <dir>/<id>.txt")
		jsonOut    = fs.String("json", "", "with -experiment sim|cluster|rebalance: run that benchmark and write its artifact as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	opt := experiments.Option{Seed: *seed, Runs: *runs, Quick: *quick}

	if *jsonOut != "" {
		return writeBench(strings.ToLower(*experiment), opt, *jsonOut, stdout, stderr)
	}

	emit := func(r experiments.Report) error {
		fmt.Fprintln(stdout, r.String())
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*outDir, r.ID+".txt"), []byte(r.String()+"\n"), 0o644)
	}

	var reports []experiments.Report
	if *experiment == "all" {
		reports = experiments.All(opt)
	} else {
		r, ok := experiments.ByID(*experiment, opt)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; known: %s\n",
				*experiment, strings.Join(experiments.IDs(), ", "))
			return 2
		}
		reports = []experiments.Report{r}
	}
	for _, r := range reports {
		if err := emit(r); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// writeBench runs the benchmark -experiment names and writes its JSON
// artifact to path. A benchmark that embeds a measured acceptance gate
// decides the exit status: CI runs it and fails the step when the gate
// does.
func writeBench(experiment string, opt experiments.Option, path string, stdout, stderr io.Writer) int {
	var (
		bench any
		err   error
	)
	switch experiment {
	case "sim":
		bench, err = experiments.Fleet(opt)
	case "cluster":
		bench, err = experiments.ClusterStress(opt)
	case "rebalance":
		bench, err = experiments.Rebalance(opt)
	default:
		fmt.Fprintf(stderr, "-json needs -experiment sim, cluster or rebalance (got %q)\n", experiment)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if g, ok := bench.(interface{ GateResult() experiments.Gate }); ok {
		gate := g.GateResult()
		fmt.Fprintf(stdout, "measured gate (%s): ratio %.3f vs floor %.2f\n",
			gate.Comparison, gate.Ratio, gate.NoiseFloor)
		if !gate.Pass {
			fmt.Fprintln(stderr, "measured gate FAILED")
			return 1
		}
	}
	return 0
}
