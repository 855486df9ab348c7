package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmokeWorkloads runs every workload at probe size with all its
// correctness checks on.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		tl, setupS, err := measure(w, &env{seed: 42, sz: probeSizes}, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tl.mismatches != 0 || tl.failed != 0 || tl.attempted == 0 {
			t.Errorf("%s: %d mismatches, %d of %d calls failed", name, tl.mismatches, tl.failed, tl.attempted)
		}
		got := endToEnd(&tl, setupS)
		for _, m := range endToEndMetrics {
			if v, ok := got[m.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, m.name, v)
			}
		}
	}
}

// TestSmokeTraced runs one traced run at probe size: every per-layer
// metric must come out, and the span file must hold a span tree.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	got, tl, err := traceRun("reattach-serve", 42, probeSizes, 400*time.Millisecond, dir)
	if err != nil {
		t.Fatal(err)
	}
	if tl.mismatches != 0 || tl.failed != 0 {
		t.Errorf("%d mismatches, %d failed calls", tl.mismatches, tl.failed)
	}
	for _, m := range perLayerMetrics {
		if _, ok := got[m.name]; !ok {
			t.Errorf("traced run did not report %s", m.name)
		}
	}
	if got["memserver.retries"] != 0 || got["lzf.allocs_per_page"] != 0 {
		t.Errorf("retries %v, lzf allocs per page %v; want 0, 0", got["memserver.retries"], got["lzf.allocs_per_page"])
	}
	if wa := got["shard.write_amplification"]; wa < fabricReplicas || wa > fabricReplicas+1 {
		t.Errorf("write amplification %v with %d replicas", wa, fabricReplicas)
	}

	data, err := os.ReadFile(filepath.Join(dir, "reattach-serve.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Summary []spanSummary
		Spans   []span
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	for _, s := range file.Spans {
		byID[s.ID] = s
	}
	nested := 0
	for _, s := range file.Spans {
		if s.Name != "memserver.GetPage" {
			continue
		}
		fetch := byID[s.Parent]
		read := byID[fetch.Parent]
		if fetch.Name != "memtap.FetchPage" || read.Name != "hypervisor.Read" || read.Op != s.Op {
			t.Fatalf("span %d (%s) has parents %q, %q", s.ID, s.Name, fetch.Name, read.Name)
		}
		if s.Start < fetch.Start || s.End > fetch.End {
			t.Fatalf("span %d is not inside its parent", s.ID)
		}
		nested++
	}
	if nested == 0 || len(file.Summary) == 0 {
		t.Errorf("%d fault span chains, %d summary rows", nested, len(file.Summary))
	}
}

// TestRecorderSelfTime: a span's self time is its duration minus what its
// children cover.
func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer")
	inner := r.begin("inner")
	time.Sleep(5 * time.Millisecond)
	r.end(inner)
	r.end(outer)
	r.aggregate()
	if d, s, in := r.dur["outer"][0], r.self["outer"][0], r.dur["inner"][0]; s != d-in || in < 5e6 || s > 4e6 {
		t.Errorf("outer %v ns, inner %v ns, outer self %v ns", d, in, s)
	}
	var none *recorder
	none.end(none.begin("ignored")) // a nil recorder records nothing
}

// TestBenchmarkJSON keeps BENCHMARK.json and the driver's metric tables
// equal, and checks the prediction each per-layer metric carries.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, the driver has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	same := func(kind string, listed []jsonMetric, specs []metricSpec, bounded bool) {
		if len(listed) != len(specs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the driver", len(listed), kind, len(specs))
		}
		seen := map[string]bool{}
		for i, m := range listed {
			s := specs[i]
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the driver %+v", kind, i, m, s)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != s.bound || s.bound <= 0 || s.bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the driver", kind, m.Name, m.Bound, s.bound)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEndMetrics, true)
	same("per-layer", file.PerLayer, perLayerMetrics, false)

	e2e := map[string]bool{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = true
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	workloads := map[string]bool{}
	for _, w := range workloadNames {
		workloads[w] = true
	}
	for _, m := range perLayerMetrics {
		if m.moves == "-" {
			continue
		}
		metric, workload, ok := strings.Cut(m.moves, "@")
		if !ok || !e2e[metric] || !workloads[workload] {
			t.Errorf("%s: moves %q is not an end-to-end metric at a workload", m.name, m.moves)
		}
	}
}
