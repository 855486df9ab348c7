// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §4.4, §5). Each experiment returns a Report with a
// plain-text rendering of the same rows/series the paper plots, so the
// oasis-bench command and the repository's benchmarks share one
// implementation. EXPERIMENTS.md records how each reproduction compares
// with the published numbers.
package experiments

import (
	"fmt"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier (e.g. "fig8", "table3").
	ID string
	// Title describes what the paper shows.
	Title string
	// Text is the rendered table/series.
	Text string
}

// String renders the report with its header.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Text)
	return b.String()
}

// Option configures experiment runs.
type Option struct {
	// Seed drives all randomness; fixed seeds give identical reports.
	Seed uint64
	// Runs is how many simulation days each cluster data point averages
	// (the paper uses five).
	Runs int
	// Quick restricts sweeps to fewer points for fast benchmarks.
	Quick bool
}

// DefaultOption returns a single-run option with seed 42.
func DefaultOption() Option { return Option{Seed: 42, Runs: 1} }

// reach says where an experiment is listed.
type reach int

const (
	byName reach = iota // ByID only
	listed              // also IDs
	inAll               // also IDs and All
)

// table is every experiment, in paper order followed by the ablations.
var table = []struct {
	id    string
	run   func(Option) Report
	reach reach
}{
	{"fig1", Fig1, inAll},
	{"fig2", Fig2, inAll},
	{"table1", Table1, inAll},
	{"fig5", Fig5, inAll},
	{"traffic", Traffic, inAll},
	{"fig6", Fig6, inAll},
	{"fig7", Fig7, inAll},
	{"fig8", Fig8, inAll},
	{"fig9", Fig9, inAll},
	{"fig10", Fig10, inAll},
	{"fig11", Fig11, inAll},
	{"fig12", Fig12, inAll},
	{"table3", Table3, inAll},
	{"rebalance", RebalanceReport, listed},
	{"fleet", FleetReport, listed},
	{"scenarios", ScenariosReport, listed},
	{"ab-diff", AblationDifferentialUpload, inAll},
	{"ab-lzf", AblationCompression, inAll},
	{"ab-shared", AblationSharedMemServer, inAll},
	{"ab-elide", AblationOverwriteElision, inAll},
	{"ab-place", AblationPlacement, inAll},
	{"ab-order", AblationVacateOrder, inAll},
	{"ab-headroom", AblationHeadroom, inAll},
	{"ab-power", AblationPowerModel, inAll},
	{"ab-mem", AblationConsolidationMemory, inAll},
	// The million-user fleet benchmark (100k under -quick) and the
	// 10k-host control-plane stress benchmark, which rebuilds two
	// 10k-host clusters: minutes-long runs that must be asked for by
	// name, never swept up by `-experiment all` or the test that runs
	// every listed experiment.
	{"sim", FleetBenchReport, byName},
	{"cluster", ClusterStressReport, byName},
}

// All runs every experiment of `-experiment all`: the paper's in paper
// order, then the ablations.
func All(opt Option) []Report {
	var out []Report
	for _, e := range table {
		if e.reach == inAll {
			out = append(out, e.run(opt))
		}
	}
	return out
}

// ByID returns the experiment with the given id, or false.
func ByID(id string, opt Option) (Report, bool) {
	id = strings.ToLower(id)
	for _, e := range table {
		if e.id == id {
			return e.run(opt), true
		}
	}
	return Report{}, false
}

// IDs lists the known experiment identifiers in paper order, followed by
// the ablations.
func IDs() []string {
	var out []string
	for _, e := range table {
		if e.reach != byName {
			out = append(out, e.id)
		}
	}
	return out
}
