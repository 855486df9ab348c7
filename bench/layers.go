package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// probeBudget is how long each scene other than the requested workload
// runs in a traced run: enough for a few reps at probeSizes.
const probeBudget = 300 * time.Millisecond

// traceRun is the traced run of one workload at size sz. It yields every
// per-layer metric: the requested workload runs at sz under the recorder
// (between two untraced stretches, for the tracing overhead), the other
// workloads run as scenes at probe size so that their layers report too,
// and the direct probes run last. Spans of the requested workload go to
// outDir/<name>.trace.json.
func traceRun(name string, seed uint64, sz sizes, budget time.Duration, outDir string) (map[string]float64, tally, error) {
	out := map[string]float64{}
	var total tally
	add := func(t tally) {
		total.attempted += t.attempted
		total.failed += t.failed
		total.mismatches += t.mismatches
	}

	// scene sets a workload up, runs it for d and, when traced, collects
	// its layers.
	scene := func(sceneName string, sz sizes, rec *recorder, d time.Duration) (tally, error) {
		w, err := newWorkload(sceneName)
		if err != nil {
			return tally{}, err
		}
		e := &env{seed: seed, sz: sz, rec: rec}
		defer w.close()
		if err := w.setup(e); err != nil {
			return tally{}, fmt.Errorf("%s: setup: %w", sceneName, err)
		}
		t, err := runReps(w, e, d)
		if err != nil {
			return t, fmt.Errorf("%s: %w", sceneName, err)
		}
		if rec != nil {
			rec.aggregate()
			w.layers(e, out)
		}
		add(t)
		return t, nil
	}

	// The requested workload: untraced, traced, untraced again. A fresh
	// process speeds up over its first seconds (the heap is being mapped),
	// so an untraced stretch on either side of the traced one keeps that
	// drift out of the overhead.
	before, err := scene(name, sz, nil, budget/6)
	if err != nil {
		return nil, total, err
	}
	rec := newRecorder()
	traced, err := scene(name, sz, rec, budget/3)
	if err != nil {
		return nil, total, err
	}
	if err := rec.write(filepath.Join(outDir, name+".trace.json")); err != nil {
		return nil, total, err
	}
	after, err := scene(name, sz, nil, budget/6)
	if err != nil {
		return nil, total, err
	}
	out["bench.trace_overhead_share"] = median(traced.opMs)/median(append(before.opMs, after.opMs...)) - 1

	// detach-upload and fabric-r2 upload the same image, one through a
	// single server and one through the fabric; shard.tax_ratio divides
	// their rates, so they always run at the same size.
	uploadPair := name == "detach-upload" || name == "fabric-r2"
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		otherSz := probeSizes
		if uploadPair && (other == "detach-upload" || other == "fabric-r2") {
			otherSz = sz
		}
		if _, err := scene(other, otherSz, newRecorder(), probeBudget); err != nil {
			return nil, total, err
		}
	}
	out["shard.tax_ratio"] = out["memserver.upload_pages_per_s"] / out["shard.upload_pages_per_s"]

	e := &env{seed: seed, sz: sz}
	img := newDesktopImage(seed, sz.image)
	if err := probeLZF(img, out); err != nil {
		return nil, total, fmt.Errorf("lzf probe: %w", err)
	}
	if err := probePagestore(img, out); err != nil {
		return nil, total, fmt.Errorf("pagestore probe: %w", err)
	}
	if err := probeHypervisor(img, out); err != nil {
		return nil, total, fmt.Errorf("hypervisor probe: %w", err)
	}
	if err := probeKnobs(e, img, out); err != nil {
		return nil, total, fmt.Errorf("knob probe: %w", err)
	}
	if err := probeSim(e, out); err != nil {
		return nil, total, fmt.Errorf("sim probe: %w", err)
	}
	probeTelemetry(out)

	for _, m := range perLayerMetrics {
		if v, ok := out[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, total, fmt.Errorf("per-layer metric %s was not measured (%v)", m.name, v)
		}
	}
	return out, total, nil
}
