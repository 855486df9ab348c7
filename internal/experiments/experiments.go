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

// All runs every experiment in paper order.
func All(opt Option) []Report {
	return []Report{
		Fig1(opt),
		Fig2(opt),
		Table1(opt),
		Fig5(opt),
		Traffic(opt),
		Fig6(opt),
		Fig7(opt),
		Fig8(opt),
		Fig9(opt),
		Fig10(opt),
		Fig11(opt),
		Fig12(opt),
		Table3(opt),
	}
}

// ByID returns the experiment with the given id, or false.
func ByID(id string, opt Option) (Report, bool) {
	switch strings.ToLower(id) {
	case "fig1":
		return Fig1(opt), true
	case "fig2":
		return Fig2(opt), true
	case "table1":
		return Table1(opt), true
	case "fig5":
		return Fig5(opt), true
	case "traffic":
		return Traffic(opt), true
	case "fig6":
		return Fig6(opt), true
	case "fig7":
		return Fig7(opt), true
	case "fig8":
		return Fig8(opt), true
	case "fig9":
		return Fig9(opt), true
	case "fig10":
		return Fig10(opt), true
	case "fig11":
		return Fig11(opt), true
	case "fig12":
		return Fig12(opt), true
	case "table3":
		return Table3(opt), true
	case "rebalance":
		return RebalanceReport(opt), true
	case "ab-diff":
		return AblationDifferentialUpload(opt), true
	case "ab-lzf":
		return AblationCompression(opt), true
	case "ab-shared":
		return AblationSharedMemServer(opt), true
	case "ab-elide":
		return AblationOverwriteElision(opt), true
	case "ab-place":
		return AblationPlacement(opt), true
	case "ab-order":
		return AblationVacateOrder(opt), true
	case "ab-headroom":
		return AblationHeadroom(opt), true
	case "ab-power":
		return AblationPowerModel(opt), true
	case "fleet":
		return FleetReport(opt), true
	case "scenarios":
		return ScenariosReport(opt), true
	case "ab-mem":
		return AblationConsolidationMemory(opt), true
	case "sim":
		// The million-user fleet benchmark (100k under -quick). Not in
		// IDs(): a minutes-long run must be asked for by name, never
		// swept up by `-experiment all` or the test that runs every
		// listed experiment.
		return FleetBenchReport(opt), true
	case "cluster":
		// The 10k-host control-plane stress benchmark. Like "sim", kept
		// out of IDs(): it rebuilds two 10k-host clusters and must be
		// asked for by name.
		return ClusterStressReport(opt), true
	default:
		return Report{}, false
	}
}

// IDs lists the known experiment identifiers in paper order, followed by
// the ablations.
func IDs() []string {
	return []string{"fig1", "fig2", "table1", "fig5", "traffic", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table3", "rebalance",
		"fleet", "scenarios",
		"ab-diff", "ab-lzf", "ab-shared", "ab-elide", "ab-place", "ab-order", "ab-headroom", "ab-power", "ab-mem"}
}
