package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// BenchSchemaVersion identifies the layout of the BENCH_*.json artifacts.
// Bump it whenever a field is added, removed, or changes meaning, so a
// reader (CI's delta step, PERFORMANCE.md tooling) can refuse to compare
// artifacts across incompatible layouts.
const BenchSchemaVersion = 6

// BenchMeta is the header every JSON bench artifact carries.
type BenchMeta struct {
	// SchemaVersion is BenchSchemaVersion at generation time.
	SchemaVersion int `json:"schema_version"`
	// GitSHA is the commit the benchmark ran against (from the binary's
	// build info when stamped, else the checkout's .git; "unknown" when
	// neither is available).
	GitSHA string `json:"git_sha"`
	// NumCPU and GOMAXPROCS are the cores the run had: without them no
	// throughput or scaling figure can be read (a 1-CPU box gives a flat
	// worker-scaling curve).
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

func benchMeta() BenchMeta {
	return BenchMeta{SchemaVersion: BenchSchemaVersion, GitSHA: gitSHA(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// Gate is a machine-checkable acceptance comparison embedded in a bench
// artifact: the same inequality the package's acceptance tests assert,
// recorded with the artifact so a reader need not re-run the benchmark
// to know whether the run it is looking at passed.
type Gate struct {
	// Metric names the compared field, e.g. "planner_plans_per_sec".
	Metric string `json:"metric"`
	// Comparison spells out the whole condition, e.g.
	// "plans_per_sec >= 2000000 AND candidates_per_pick <= 2.00".
	Comparison string `json:"comparison"`
	// Ratio is the measured throughput over its floor.
	Ratio float64 `json:"ratio"`
	// NoiseFloor is the least Ratio that passes.
	NoiseFloor float64 `json:"noise_floor"`
	// Pass reports Ratio >= NoiseFloor and every other clause of
	// Comparison.
	Pass bool `json:"pass"`
}

// gateWord renders a gate's verdict for plain-text reports.
func gateWord(g Gate) string {
	if g.Pass {
		return "PASS"
	}
	return "FAIL"
}

// gitSHA resolves the commit hash for BenchMeta. Binaries built by
// `go build` carry vcs.revision; `go run` and test binaries usually do
// not, so it falls back to reading .git/HEAD from the working tree.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if sha := gitSHAFromDir(); sha != "" {
		return sha
	}
	return "unknown"
}

// gitSHAFromDir walks from the working directory up to a .git and
// resolves HEAD by hand (no git binary needed).
func gitSHAFromDir() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if sha, ok := strings.CutPrefix(ref, "ref: "); ok {
				b, err := os.ReadFile(filepath.Join(dir, ".git", filepath.FromSlash(sha)))
				if err != nil {
					return ""
				}
				return strings.TrimSpace(string(b))
			}
			return ref // detached HEAD holds the hash directly
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
