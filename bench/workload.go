package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"oasis"
)

// sizes scale the workloads. fullSizes is the benchmark of record;
// probeSizes is what a traced run uses for the scenes other than the one
// it was asked for, and what the smoke test runs.
type sizes struct {
	image oasis.Bytes // guest allocation of every page-moving workload

	faults        int // reattach-serve, fabric-r2: demand faults per rep
	prefetchBatch int // pages per PrefetchRemaining round trip
	diffs         int // detach-upload, fabric-r2: differential uploads per rep
	diffPages     int // pages dirtied before each differential upload
	killReads     int // fabric-r2: reads after one backend is closed

	cycleDirty  int // vdi-cycle: pages the guest dirties at home per cycle
	cycleFaults int // vdi-cycle: ReadPage faults on the consolidation host
	cycleWrites int // vdi-cycle: WritePage calls on the consolidation host
	cycleChecks int // vdi-cycle: consolidation-host writes read back at home

	fleetUsers int // fleet-sim: users per SimulateFleet call
	setupUsers int // fleet-sim: users of the worker-identity check in setup
}

var fullSizes = sizes{
	image:  32 * oasis.MiB,
	faults: 1000, prefetchBatch: 256,
	diffs: 8, diffPages: 256, killReads: 4096,
	cycleDirty: 128, cycleFaults: 64, cycleWrites: 32, cycleChecks: 8,
	fleetUsers: 9000, setupUsers: 3600,
}

var probeSizes = sizes{
	image:  4 * oasis.MiB,
	faults: 200, prefetchBatch: 256,
	diffs: 2, diffPages: 64, killReads: 256,
	cycleDirty: 32, cycleFaults: 16, cycleWrites: 8, cycleChecks: 4,
	fleetUsers: 1800, setupUsers: 900,
}

// env is what a workload runs under.
type env struct {
	seed uint64
	sz   sizes
	rec  *recorder // nil unless this is a traced run
}

// tally accumulates what the measured reps of one workload produced.
type tally struct {
	opMs   []float64 // latency of every op, ms
	rates  []float64 // units per second, one value per rep
	repEnd []int     // len(opMs) when each measured rep ended
	reps   int
	// attempted counts every call the driver made into the system;
	// failed those that returned an error. A failed call also aborts the
	// run, so a printed result always has failed == 0.
	attempted, failed int
	// mismatches counts outputs that differed from the generated inputs.
	mismatches int
}

// call counts one call into the system and passes its error through.
func (t *tally) call(err error) error {
	t.attempted++
	if err != nil {
		t.failed++
	}
	return err
}

// samePage counts a mismatch unless got equals want.
func (t *tally) samePage(got, want []byte) {
	if !bytes.Equal(got, want) {
		t.mismatches++
	}
}

// workload is one closed-loop driver. setup may be called again after
// close: the runner sets up several times to report a median set-up time.
type workload interface {
	setup(e *env) error
	// rep is one pass of the loop. It appends op latencies and one rate.
	rep(e *env, t *tally) error
	// finish runs once after the last rep, off the clock.
	finish(e *env, t *tally) error
	close()
	// layers adds the per-layer metrics this workload's spans give. It
	// runs after finish, before close.
	layers(e *env, out map[string]float64)
}

var workloadNames = []string{"vdi-cycle", "detach-upload", "reattach-serve", "fabric-r2", "fleet-sim"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "vdi-cycle":
		return &vdiCycle{}, nil
	case "detach-upload":
		return &detachUpload{}, nil
	case "reattach-serve":
		return &reattachServe{}, nil
	case "fabric-r2":
		return &fabricR2{}, nil
	case "fleet-sim":
		return &fleetSim{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// secret authenticates the benchmark's clients to its in-process servers.
var secret = []byte("oasis-bench")

// benchVM is the first VMID the workloads use.
const benchVM = oasis.VMID(4200)

// setupReps is how many times the runner sets a workload up; setup_s is
// the median.
const setupReps = 5

// measure sets the workload up setupReps times, runs one discarded warm-up
// rep, then whole reps until budget has passed.
func measure(w workload, e *env, budget time.Duration) (t tally, setupS float64, err error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return t, 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	t, err = runReps(w, e, budget)
	return t, median(setups), err
}

// runReps runs a warm-up rep and then reps for budget on a workload that
// is already set up, and finishes it.
func runReps(w workload, e *env, budget time.Duration) (tally, error) {
	var warm, t tally
	if err := w.rep(e, &warm); err != nil {
		return t, fmt.Errorf("warm-up rep: %w", err)
	}
	t.attempted, t.failed, t.mismatches = warm.attempted, warm.failed, warm.mismatches
	for start := time.Now(); t.reps == 0 || time.Since(start) < budget; t.reps++ {
		runtime.GC()
		if err := w.rep(e, &t); err != nil {
			return t, fmt.Errorf("rep %d: %w", t.reps, err)
		}
		t.repEnd = append(t.repEnd, len(t.opMs))
	}
	if err := w.finish(e, &t); err != nil {
		return t, fmt.Errorf("finish: %w", err)
	}
	return t, nil
}

// endToEnd turns a tally into the end-to-end metrics. The upper quartile
// is the highest percentile that is bounded: on a few cores of a shared
// host, anything higher moves with the neighbours several times as far as
// the median does (see README.md).
func endToEnd(t *tally, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":     setupS,
		"op_p50_ms":   t.opPercentile(50),
		"op_p75_ms":   t.opPercentile(75),
		"units_per_s": median(t.rates),
	}
}

// opPercentile is the p-th percentile of op latency. Where every rep holds
// enough ops to keep ten beyond p, the percentile is taken inside each rep
// and the median over reps reported: a stretch of the run that a neighbour
// on the host disturbed then moves the reps it covers and not the result.
// Otherwise the ops of the whole run are pooled.
func (t *tally) opPercentile(p float64) float64 {
	need := int(math.Ceil(10 / (1 - p/100)))
	var perRep []float64
	start := 0
	for _, end := range t.repEnd {
		if end-start < need {
			return percentile(t.opMs, p)
		}
		perRep = append(perRep, percentile(t.opMs[start:end], p))
		start = end
	}
	if len(perRep) == 0 {
		return percentile(t.opMs, p)
	}
	return median(perRep)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
