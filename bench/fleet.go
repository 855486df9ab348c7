package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"oasis"
)

// fleetWorkers is the parallelism of every timed fleet run: the two cores
// this benchmark was sized on.
const fleetWorkers = 2

// fleetFingerprint42 pins the fleet result of seed 42 at fullSizes: a
// change that moves it changed what the simulator computes, not how fast.
const fleetFingerprint42 = 0x2280582320710c89

// fleetSim is the trace-driven simulator alone: no sockets, no pages.
// trace generates user-days, cluster/host/placement run each cell's day,
// sim merges the cells.
//
// op: one SimulateFleet call over fleetUsers users on fleetWorkers workers.
// unit: one simulated user-day, over that call's wall time.
type fleetSim struct {
	cfg   oasis.FleetConfig
	first *oasis.FleetResult
	// prints counts the distinct result fingerprints the reps gave. The
	// simulator promises one; see sameFleetDay for why more than one is
	// reported and not failed.
	prints map[uint64]int
}

func fleetConfig(seed uint64, users, workers int) oasis.FleetConfig {
	return oasis.FleetConfig{
		Cell: oasis.DefaultClusterConfig(), Kind: oasis.Weekday,
		Users: users, Workers: workers, Seed: seed,
	}
}

// sameFleetDay reports whether two runs of one fleet configuration
// simulated the same day. What the trace alone decides must be identical:
// the always-on baseline energy and the active-VM series. The
// consolidated energy may differ by a thousandth: on about one seed in a
// hundred the simulator's placement breaks a tie differently from run to
// run (seed 200 gives two fingerprints 0.007 % of energy apart, at one
// worker too), so a benchmark that must not fail on any seed cannot
// demand equal fingerprints. Seed 42 is pinned exactly.
func sameFleetDay(a, b *oasis.FleetResult) bool {
	diff := a.OasisMicroJ - b.OasisMicroJ
	if diff < 0 {
		diff = -diff
	}
	return a.Users == b.Users && a.Cells == b.Cells &&
		a.BaselineMicroJ == b.BaselineMicroJ &&
		slices.Equal(a.ActiveSeries, b.ActiveSeries) &&
		diff <= a.OasisMicroJ/1000
}

// setup checks, on a small fleet, that the result does not depend on the
// worker count.
func (w *fleetSim) setup(e *env) error {
	var ref *oasis.FleetResult
	for workers := 1; workers <= fleetWorkers; workers++ {
		res, err := oasis.SimulateFleet(fleetConfig(e.seed, e.sz.setupUsers, workers))
		if err != nil {
			return err
		}
		if ref == nil {
			ref = res
		} else if !sameFleetDay(ref, res) {
			return fmt.Errorf("fleet result depends on the worker count: fingerprints %#x, %#x", ref.Fingerprint(), res.Fingerprint())
		}
	}
	w.cfg = fleetConfig(e.seed, e.sz.fleetUsers, fleetWorkers)
	w.first, w.prints = nil, map[uint64]int{}
	return nil
}

func (w *fleetSim) close() {}

func (w *fleetSim) rep(e *env, t *tally) error {
	e.rec.nextOp()
	t0 := time.Now()
	res, err := oasis.SimulateFleet(w.cfg)
	d := time.Since(t0)
	if t.call(err) != nil {
		return err
	}
	t.opMs = append(t.opMs, ms(d))
	t.rates = append(t.rates, float64(w.cfg.Users)/d.Seconds())
	if w.first == nil {
		w.first = res
	}
	if !sameFleetDay(w.first, res) {
		t.mismatches++
	}
	fp := res.Fingerprint()
	w.prints[fp]++
	if e.seed == 42 && e.sz == fullSizes && fp != fleetFingerprint42 {
		return fmt.Errorf("fleet fingerprint %#x, pinned %#x", fp, uint64(fleetFingerprint42))
	}
	return nil
}

func (w *fleetSim) finish(e *env, _ *tally) error {
	if len(w.prints) > 1 {
		fmt.Fprintf(os.Stderr, "fleet-sim: seed %d gave %d distinct fingerprints over its reps: the simulator is not deterministic here\n",
			e.seed, len(w.prints))
	}
	return nil
}

// layers: a fleet run has no seam to put a span in, so the simulator's
// layers are probed directly (probeSim); the scene only counts how many
// different results its reps gave.
func (w *fleetSim) layers(_ *env, out map[string]float64) {
	out["sim.fingerprint_variants"] = float64(len(w.prints))
}
