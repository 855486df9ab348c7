package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// BenchSchemaVersion identifies the layout of the BENCH_*.json artifacts.
// Bump it whenever a field is added, removed, or changes meaning, so a
// reader (CI's delta step, PERFORMANCE.md tooling) can refuse to compare
// artifacts across incompatible layouts.
const BenchSchemaVersion = 2

// benchRuns is how many times each measured transport is run; the
// recorded numbers are the best run. On a loaded or small build machine
// a single run is dominated by scheduling and GC noise — best-of-N is
// the standard way to ask "how fast is this code path" rather than "how
// busy was the box". Seven, because a rep is short: since the
// word-at-a-time codec a 32 MiB conversion takes ~25 ms, and best-of-3
// over windows that short failed the 0.90 gate 2 times in 15 on a
// loaded 2-core box where best-of-7 failed 0 in 15 (and costs what
// best-of-3 did with the old codec). Under the race detector a single
// rep is used: instrumentation slows the transports by an order of
// magnitude, the measured gate is skipped there anyway, and more reps
// would push the experiments package past its test timeout for no
// extra signal.
var benchRuns = func() int {
	if raceEnabled {
		return 1
	}
	return 7
}()

// measuredNoiseFloor is the slack the measured acceptance gates allow:
// the faster transport must reach at least this fraction of its rival's
// throughput before the comparison is called a regression. The observed
// best-of-N run-to-run spread on a loaded loopback box is up to ~8%
// (ratios 0.93–1.02 across repeated runs on the same commit), so the
// floor sits at 10%: tight enough to catch a real regression (the
// pooled path going genuinely slower than serial shows up as a ~2×
// ratio collapse, not a few percent), loose enough that a busy CI
// runner does not flake the gate.
const measuredNoiseFloor = 0.90

// BenchMeta is the header every JSON bench artifact carries.
type BenchMeta struct {
	// SchemaVersion is BenchSchemaVersion at generation time.
	SchemaVersion int `json:"schema_version"`
	// GitSHA is the commit the benchmark ran against (from the binary's
	// build info when stamped, else the checkout's .git; "unknown" when
	// neither is available).
	GitSHA string `json:"git_sha"`
	// Runs is the best-of-N count behind every measured number.
	Runs int `json:"runs_per_transport"`
}

func benchMeta() BenchMeta {
	return BenchMeta{SchemaVersion: BenchSchemaVersion, GitSHA: gitSHA(), Runs: benchRuns}
}

// Gate is a machine-checkable acceptance comparison embedded in a bench
// artifact: the same inequality the package's acceptance tests assert,
// recorded with the artifact so a reader need not re-run the benchmark
// to know whether the run it is looking at passed.
type Gate struct {
	// Metric names the compared field, e.g. "upload_pages_per_sec".
	Metric string `json:"metric"`
	// Comparison spells out the inequality, e.g.
	// "streamed >= 0.90 * serial".
	Comparison string `json:"comparison"`
	// Ratio is the measured left/right throughput ratio.
	Ratio float64 `json:"ratio"`
	// NoiseFloor is the slack factor the comparison allows.
	NoiseFloor float64 `json:"noise_floor"`
	// Pass reports Ratio >= NoiseFloor.
	Pass bool `json:"pass"`
}

func measuredGate(metric, fast, slow string, fastPps, slowPps float64) Gate {
	ratio := fastPps / slowPps
	return Gate{
		Metric:     metric,
		Comparison: fmt.Sprintf("%s >= %.2f * %s", fast, measuredNoiseFloor, slow),
		Ratio:      ratio,
		NoiseFloor: measuredNoiseFloor,
		Pass:       ratio >= measuredNoiseFloor,
	}
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

// bestOf times f benchRuns times and returns the shortest wall time. A
// forced GC before each run keeps one rep's garbage (a staged image, a
// snapshot buffer) from being collected on the next rep's clock.
func bestOf(f func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < benchRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}
