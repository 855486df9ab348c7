package main

import (
	"fmt"
	"os"
	"time"

	"oasis"
	"oasis/internal/agent"
)

// vdiCycle is the paper's whole loop through the real control plane:
// three host agents behind one manager over RPC sockets, one desktop VM.
// Each cycle the guest dirties pages at home (off the clock), then the
// manager consolidates it (differential PartialMigrate), suspends the
// home, the VM faults and writes on the consolidation host, and the
// manager wakes the home and reintegrates. The ops are small, so agent
// and wire (JSON/base64 RPC, a memtap dial per cycle) do most of the
// work, codec and bulk transport little.
//
// op: one cycle, PartialMigrate start to Reintegrate return.
// unit: one page shipped by PartialMigrate, over its wall time.
type vdiCycle struct {
	img    *desktopImage
	mgr    *agent.Manager
	agents []*agent.Agent
	repN   uint64
	// pending is what the next PartialMigrate ships: pages dirtied at
	// home since the last upload, reintegrated writes included.
	pending map[oasis.PFN]struct{}

	firstDetachMs float64
}

const (
	vdiHome = "home-0"
	vdiCons = "cons-0"
)

func (w *vdiCycle) setup(e *env) error {
	w.img = newDesktopImage(e.seed, e.sz.image)
	w.mgr = agent.NewManager()
	w.agents = nil
	for _, name := range []string{vdiHome, "home-1", vdiCons} {
		a := agent.New(name, secret, nil)
		if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			return err
		}
		w.agents = append(w.agents, a)
		if err := w.mgr.AddHost(name, a.Addr()); err != nil {
			return err
		}
	}
	err := w.mgr.CreateVMOn(vdiHome, agent.CreateVMArgs{VMID: benchVM, Name: "desktop", Alloc: e.sz.image, VCPUs: 1})
	if err != nil {
		return err
	}
	for _, pfn := range w.img.touched {
		if err := w.mgr.WritePage(vdiHome, benchVM, pfn, w.img.page(pfn)); err != nil {
			return err
		}
	}
	// The first consolidation uploads the full image; every later one is
	// differential.
	t0 := time.Now()
	if err := w.mgr.PartialMigrate(benchVM, vdiHome, vdiCons); err != nil {
		return err
	}
	w.firstDetachMs = ms(time.Since(t0))
	w.repN = 0
	w.pending = map[oasis.PFN]struct{}{}
	return w.mgr.Reintegrate(benchVM, vdiCons, vdiHome)
}

func (w *vdiCycle) close() {
	if w.mgr != nil {
		w.mgr.Close()
		w.mgr = nil
	}
	for _, a := range w.agents {
		a.Close()
	}
	w.agents = nil
}

// timed runs one manager call under a span and counts it.
func timed(e *env, t *tally, name string, fn func() error) error {
	s := e.rec.begin(name)
	err := fn()
	e.rec.end(s)
	return t.call(err)
}

func (w *vdiCycle) rep(e *env, t *tally) error {
	r := newRNG(e.seed, 0x76646963+w.repN<<32) // "vdic"
	w.repN++
	mgr := w.mgr

	// Guest activity at home, off the clock.
	for _, pfn := range w.img.pickPFNs(r, e.sz.cycleDirty, nil) {
		data := w.img.dirty(r, pfn)
		err := timed(e, t, "wire.WritePage", func() error { return mgr.WritePage(vdiHome, benchVM, pfn, data) })
		if err != nil {
			return err
		}
		w.pending[pfn] = struct{}{}
	}
	faults := w.img.pickPFNs(r, e.sz.cycleFaults, nil)
	writes := w.img.pickPFNs(r, e.sz.cycleWrites, nil)

	e.rec.nextOp()
	start := time.Now()
	err := timed(e, t, "agent.PartialMigrate", func() error { return mgr.PartialMigrate(benchVM, vdiHome, vdiCons) })
	if err != nil {
		return err
	}
	t.rates = append(t.rates, float64(len(w.pending))/time.Since(start).Seconds())
	clear(w.pending)
	if err := timed(e, t, "agent.Suspend", func() error { return mgr.Suspend(vdiHome) }); err != nil {
		return err
	}
	for _, pfn := range faults {
		var page []byte
		err := timed(e, t, "agent.ReadPage", func() (err error) {
			page, err = mgr.ReadPage(vdiCons, benchVM, pfn)
			return err
		})
		if err != nil {
			return err
		}
		t.samePage(page, w.img.page(pfn))
	}
	for _, pfn := range writes {
		data := w.img.dirty(r, pfn)
		if err := t.call(mgr.WritePage(vdiCons, benchVM, pfn, data)); err != nil {
			return err
		}
		w.pending[pfn] = struct{}{}
	}
	if err := timed(e, t, "agent.Wake", func() error { return mgr.Wake(vdiHome) }); err != nil {
		return err
	}
	err = timed(e, t, "agent.Reintegrate", func() error { return mgr.Reintegrate(benchVM, vdiCons, vdiHome) })
	if err != nil {
		return err
	}
	t.opMs = append(t.opMs, ms(time.Since(start)))

	// What the VM wrote while consolidated must be home now.
	for _, pfn := range writes[:min(e.sz.cycleChecks, len(writes))] {
		page, err := mgr.ReadPage(vdiHome, benchVM, pfn)
		if t.call(err) != nil {
			return err
		}
		t.samePage(page, w.img.page(pfn))
	}
	return nil
}

// finish, on a traced run, times the calls no cycle makes: the smallest
// RPC, a fleet stats sweep, and a read of a page already present.
func (w *vdiCycle) finish(e *env, t *tally) error {
	if e.rec == nil {
		return nil
	}
	mgr := w.mgr
	for i := 0; i < 64; i++ {
		err := timed(e, t, "wire.HostStats", func() error { _, err := mgr.HostStats(vdiCons); return err })
		if err != nil {
			return err
		}
	}
	for i := 0; i < 16; i++ {
		err := timed(e, t, "agent.RefreshStats", func() error { _, err := mgr.RefreshStats(); return err })
		if err != nil {
			return err
		}
	}
	if err := t.call(mgr.PartialMigrate(benchVM, vdiHome, vdiCons)); err != nil {
		return err
	}
	pfn := w.img.touched[0]
	for i := 0; i < 65; i++ {
		name := "agent.ReadPage.present"
		if i == 0 {
			name = "agent.ReadPage" // the first read faults the page in
		}
		err := timed(e, t, name, func() error { _, err := mgr.ReadPage(vdiCons, benchVM, pfn); return err })
		if err != nil {
			return err
		}
	}
	return t.call(mgr.Reintegrate(benchVM, vdiCons, vdiHome))
}

func (w *vdiCycle) layers(e *env, out map[string]float64) {
	rec := e.rec
	out["agent.partial_migrate_ms"] = median(rec.dur["agent.PartialMigrate"]) / 1e6
	out["agent.first_detach_ms"] = w.firstDetachMs
	out["agent.read_page_us"] = median(rec.dur["agent.ReadPage"]) / 1e3
	out["agent.read_page_present_us"] = median(rec.dur["agent.ReadPage.present"]) / 1e3
	out["agent.reintegrate_ms"] = median(rec.dur["agent.Reintegrate"]) / 1e6
	out["agent.suspend_wake_ms"] = (median(rec.dur["agent.Suspend"]) + median(rec.dur["agent.Wake"])) / 1e6
	out["agent.refresh_stats_ms"] = median(rec.dur["agent.RefreshStats"]) / 1e6
	out["wire.call_us"] = median(rec.dur["wire.HostStats"]) / 1e3
	out["wire.page_call_us"] = median(rec.dur["wire.WritePage"]) / 1e3

	// The codec work inside one differential PartialMigrate, done alone:
	// encode the pages a cycle ships and apply them to a fresh image.
	share, err := w.codecShare(e, out["agent.partial_migrate_ms"])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdi-cycle: overhead probe:", err)
	}
	out["agent.overhead_share"] = 1 - share
}

// codecShare is (EncodeImageDiff + ApplySnapshot of one cycle's pages) as
// a share of migrateMs.
func (w *vdiCycle) codecShare(e *env, migrateMs float64) (float64, error) {
	im, err := w.img.image()
	if err != nil {
		return 0, err
	}
	r := newRNG(e.seed, 0x636f6463) // "codc"
	var codec []float64
	for i := 0; i < 16; i++ {
		epoch := im.NextEpoch()
		for _, pfn := range w.img.pickPFNs(r, e.sz.cycleDirty+e.sz.cycleWrites, nil) {
			if err := im.Write(pfn, w.img.page(pfn)); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		snap, _, err := oasis.EncodeImageDiff(im, epoch)
		if err != nil {
			return 0, err
		}
		if err := oasis.ApplySnapshot(oasis.NewImage(e.sz.image), snap); err != nil {
			return 0, err
		}
		codec = append(codec, ms(time.Since(t0)))
	}
	return median(codec) / migrateMs, nil
}
