// Command bench is the Oasis benchmark of record: five closed-loop
// workloads driven from one process against in-process servers on
// loopback. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// traceDir is where a traced run writes its span file, relative to the
// benchmark's directory.
const traceDir = "out"

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with what produced it, as -out appends it and -agree
// reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run; empty runs all five, one process each")
		seed         = flag.Uint64("seed", 42, "seed the inputs are generated from")
		seconds      = flag.Float64("seconds", 20, "how long the measured reps run")
		trace        = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
		outFile      = flag.String("out", "", "append the result to this file, one JSON record per line")
		agree        = flag.Bool("agree", false, "compare two -out files given as arguments; exit 1 if they disagree")
	)
	flag.Parse()

	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two result files"))
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workloadName == "":
		if err := runAll(os.Args[1:]); err != nil {
			fatal(err)
		}
	default:
		budget := time.Duration(*seconds * float64(time.Second))
		rec, err := runOne(*workloadName, *seed, budget, *trace != 0)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *workloadName, err))
		}
		if *outFile != "" {
			if err := appendRecord(*outFile, rec); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne measures one workload in this process and prints its metrics.
func runOne(name string, seed uint64, budget time.Duration, traced bool) (record, error) {
	rec := record{Workload: name, Seed: seed}
	var values map[string]float64
	var specs []metricSpec
	var t tally
	if traced {
		var err error
		if values, t, err = traceRun(name, seed, fullSizes, budget, traceDir); err != nil {
			return rec, err
		}
		specs = perLayerMetrics
	} else {
		w, err := newWorkload(name)
		if err != nil {
			return rec, err
		}
		var setupS float64
		if t, setupS, err = measure(w, &env{seed: seed, sz: fullSizes}, budget); err != nil {
			return rec, err
		}
		values = endToEnd(&t, setupS)
		specs = endToEndMetrics
		fmt.Printf("%s seed %d: %d reps, %d ops; all ops pooled, ms: p50 %.4f p90 %.4f p95 %.4f p99 %.4f max %.4f\n",
			name, seed, t.reps, len(t.opMs), median(t.opMs), percentile(t.opMs, 90),
			percentile(t.opMs, 95), percentile(t.opMs, 99), percentile(t.opMs, 100))
	}
	rec.result = result{
		Correct:   t.mismatches == 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		rec.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		bound := ""
		if m.bound > 0 {
			bound = fmt.Sprintf("  (may worsen by %.0f%%)", 100*m.bound)
		}
		fmt.Printf("  %-40s %14.4f %-6s %s is better%s\n", m.name, values[m.name], m.unit, m.better, bound)
	}
	if t.mismatches != 0 {
		fmt.Fprintf(os.Stderr, "%s: %d outputs differed from the generated inputs\n", name, t.mismatches)
	}
	return rec, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a process of its own, so that no
// workload's heap or warmed caches reach the next, under one header that
// says what machine the numbers are from.
func runAll(args []string) error {
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Fields(string(data))[0]
	}
	fmt.Printf("oasis bench: nproc %d, GOMAXPROCS %d, %s, git %s, 1-min load %s; loopback TCP, in-process servers\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitSHA(), load)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames {
		cmd := exec.Command(self, append([]string{"-workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// gitSHA reads the checked-out commit of the repository the benchmark
// sits in, without running git.
func gitSHA() string {
	head, err := os.ReadFile("../.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile("../.git/" + rest)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}
