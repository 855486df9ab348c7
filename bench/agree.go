package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the spread of a metric over runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// Verdicts of one (workload, metric) row.
const (
	verdictUnchanged  = "unchanged"  // medians within the bound, spreads too
	verdictDiffers    = "differs"    // medians apart by more than the bound
	verdictUnresolved = "unresolved" // a set's own spread exceeds the bound
	verdictIdentical  = "identical"  // exact metric, equal on every shared seed
	verdictInfo       = "info"       // per-layer timing: no bound to judge by
)

// agreeRow compares one metric of one workload across two result sets.
type agreeRow struct {
	workload, metric string
	a, b             float64 // medians
	rel              float64 // (b - a) / a
	verdict          string
}

type sample struct {
	seed  uint64
	value float64
}

// compareMetric judges one metric's samples from two sets.
func compareMetric(m metricSpec, a, b []sample) agreeRow {
	values := func(ss []sample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = s.value
		}
		return out
	}
	va, vb := values(a), values(b)
	row := agreeRow{metric: m.name, a: median(va), b: median(vb)}
	row.rel = (row.b - row.a) / math.Abs(row.a)
	if row.a == row.b {
		row.rel = 0
	}
	switch {
	case m.exact:
		row.verdict = verdictIdentical
		bySeed := map[uint64]float64{}
		for _, s := range a {
			bySeed[s.seed] = s.value
		}
		for _, s := range b {
			if v, ok := bySeed[s.seed]; ok && v != s.value {
				row.verdict = verdictDiffers
			}
		}
	case m.bound == 0:
		row.verdict = verdictInfo
	case m.name != "setup_s" && (spread(va) > m.bound || spread(vb) > m.bound):
		// Set-up runs only a few times per run, so its spread says
		// little; it is judged by its medians alone.
		row.verdict = verdictUnresolved
	case math.Abs(row.rel) > m.bound:
		row.verdict = verdictDiffers
	default:
		row.verdict = verdictUnchanged
	}
	return row
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// agree compares two sets of records row by row and reports whether they
// agree: every run correct, no end-to-end metric apart by more than its
// bound or too noisy to tell, every exact count equal.
func agree(a, b []record) (rows []agreeRow, ok bool) {
	ok = true
	type key struct {
		workload, metric string
	}
	collect := func(recs []record) map[key][]sample {
		out := map[key][]sample{}
		for _, r := range recs {
			if !r.Correct || r.Failed != 0 {
				ok = false
			}
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], sample{r.Seed, v.Value})
			}
		}
		return out
	}
	sa, sb := collect(a), collect(b)
	specs := append(append([]metricSpec(nil), endToEndMetrics...), perLayerMetrics...)
	for _, w := range workloadNames {
		for _, m := range specs {
			k := key{w, m.name}
			if len(sa[k]) == 0 && len(sb[k]) == 0 {
				continue
			}
			row := agreeRow{workload: w, metric: m.name, verdict: verdictDiffers}
			if len(sa[k]) > 0 && len(sb[k]) > 0 {
				row = compareMetric(m, sa[k], sb[k])
				row.workload = w
			}
			if row.verdict == verdictDiffers || row.verdict == verdictUnresolved {
				ok = false
			}
			rows = append(rows, row)
		}
	}
	return rows, ok
}

// agreeFiles is -agree: it prints one row per (workload, metric).
func agreeFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	rows, ok := agree(a, b)
	fmt.Fprintf(w, "%-16s %-40s %14s %14s %9s  %s\n", "workload", "metric", "a (median)", "b (median)", "b vs a", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-40s %14.4f %14.4f %+8.2f%%  %s\n", r.workload, r.metric, r.a, r.b, 100*r.rel, r.verdict)
	}
	if !ok {
		fmt.Fprintln(w, "the two result sets do not agree")
	}
	return ok, nil
}
