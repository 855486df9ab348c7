package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickOpt() Option {
	return Option{Seed: 42, Runs: 1, Quick: true}
}

func TestByIDKnowsEveryListedExperiment(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ByID(id, Option{}); !ok {
			t.Errorf("IDs() lists %q but ByID does not know it", id)
		}
	}
	if _, ok := ByID("nonsense", Option{}); ok {
		t.Error("ByID accepted an unknown id")
	}
	// Case-insensitive lookup.
	if _, ok := ByID("FIG5", Option{}); !ok {
		t.Error("ByID is case sensitive")
	}
}

// TestExperimentLists pins the order -list and -experiment all print,
// and keeps the minutes-long benchmarks reachable by name only.
func TestExperimentLists(t *testing.T) {
	paper := "fig1 fig2 table1 fig5 traffic fig6 fig7 fig8 fig9 fig10 fig11 fig12 table3"
	ablations := "ab-diff ab-lzf ab-shared ab-elide ab-place ab-order ab-headroom ab-power ab-mem"
	if got, want := strings.Join(IDs(), " "), paper+" rebalance fleet scenarios "+ablations; got != want {
		t.Errorf("IDs() = %s\nwant     %s", got, want)
	}
	var all, named []string
	for _, e := range table {
		switch e.reach {
		case inAll:
			all = append(all, e.id)
		case byName:
			named = append(named, e.id)
		}
	}
	if got, want := strings.Join(all, " "), paper+" "+ablations; got != want {
		t.Errorf("-experiment all runs %s\nwant                   %s", got, want)
	}
	if got := strings.Join(named, " "); got != "sim cluster" {
		t.Errorf("reachable by name only: %s, want sim cluster", got)
	}
}

func TestMicroReportsContainPaperAnchors(t *testing.T) {
	cases := map[string][]string{
		"fig1":    {"desktop", "188.2"},
		"fig2":    {"1 db VM", "5.8"},
		"table1":  {"102.2", "137.9", "12.9", "55.1"},
		"fig5":    {"full migration", "partial migration #2", "reintegration"},
		"traffic": {"descriptor push", "175.3"},
		"fig6":    {"LibreOffice", "41"},
	}
	for id, anchors := range cases {
		r, ok := ByID(id, quickOpt())
		if !ok {
			t.Fatalf("%s missing", id)
		}
		if r.Title == "ERROR" {
			t.Fatalf("%s errored: %s", id, r.Text)
		}
		for _, a := range anchors {
			if !strings.Contains(r.Text, a) {
				t.Errorf("%s: report missing anchor %q", id, a)
			}
		}
	}
}

// parseFig5 extracts a latency row ("name ... Xs ...") from the fig5
// report.
func parseFig5(t *testing.T, text, row string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, row) {
			fields := strings.Fields(line)
			for _, f := range fields {
				if strings.HasSuffix(f, "s") {
					v, err := strconv.ParseFloat(strings.TrimSuffix(f, "s"), 64)
					if err == nil {
						return v
					}
				}
			}
		}
	}
	t.Fatalf("row %q not found in fig5 report", row)
	return 0
}

func TestFig5Numbers(t *testing.T) {
	r, _ := ByID("fig5", quickOpt())
	full := parseFig5(t, r.Text, "full migration")
	p1 := parseFig5(t, r.Text, "partial migration #1")
	p2 := parseFig5(t, r.Text, "partial migration #2")
	re := parseFig5(t, r.Text, "reintegration")
	if full < 39 || full > 43 {
		t.Errorf("full migration = %.1fs, want ~41", full)
	}
	if p1 < 14.5 || p1 > 16.5 {
		t.Errorf("partial #1 = %.1fs, want ~15.7", p1)
	}
	if p2 < 6.5 || p2 > 8 {
		t.Errorf("partial #2 = %.1fs, want ~7.2", p2)
	}
	if re < 3 || re > 4.5 {
		t.Errorf("reintegration = %.1fs, want ~3.7", re)
	}
	if !(full > p1 && p1 > p2 && p2 > re) {
		t.Error("latency ordering broken")
	}
}

func TestClusterReportsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-day experiments are slow")
	}
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table3"} {
		r, ok := ByID(id, quickOpt())
		if !ok {
			t.Fatalf("%s missing", id)
		}
		if r.Title == "ERROR" {
			t.Fatalf("%s errored: %s", id, r.Text)
		}
		if len(r.Text) < 100 {
			t.Errorf("%s report suspiciously short:\n%s", id, r.Text)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations include cluster days")
	}
	var reports []Report
	for _, id := range IDs() {
		if strings.HasPrefix(id, "ab-") {
			r, _ := ByID(id, quickOpt())
			reports = append(reports, r)
		}
	}
	if len(reports) < 6 {
		t.Fatalf("only %d ablations", len(reports))
	}
	for _, r := range reports {
		if r.Title == "ERROR" {
			t.Errorf("%s errored: %s", r.ID, r.Text)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{ID: "x", Title: "T", Text: "body\n"}
	s := r.String()
	if !strings.Contains(s, "== x: T ==") || !strings.Contains(s, "body") {
		t.Errorf("String = %q", s)
	}
}

func TestDeterministicReports(t *testing.T) {
	a, _ := ByID("fig2", quickOpt())
	b, _ := ByID("fig2", quickOpt())
	if a.Text != b.Text {
		t.Error("same seed produced different fig2 reports")
	}
}
