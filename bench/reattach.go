package main

import (
	"fmt"
	"time"

	"oasis"
)

// reattachServe is the read side of the memory server: a VM wakes on a
// consolidation host, faults pages one round trip at a time, then converts
// to a full VM by prefetching the rest. Every rep dials a fresh memtap and
// builds a fresh partial VM over the image installed in setup.
//
// op: one demand fault, pvm.Read call to page returned.
// unit: one page installed by PrefetchRemaining, over its wall time.
type reattachServe struct {
	img  *desktopImage
	srv  *server
	repN uint64

	// what the first rep's memtap counted; exact per seed
	zeroElided, deduped, reorders, retries float64
	installed                              float64 // pages PrefetchRemaining installed, all reps
}

func (w *reattachServe) setup(e *env) error {
	w.img = newDesktopImage(e.seed, e.sz.image)
	im, err := w.img.image()
	if err != nil {
		return err
	}
	snap, _, err := oasis.EncodeImage(im)
	if err != nil {
		return err
	}
	if _, err := w.img.checkMix(len(snap)); err != nil {
		return err
	}
	if w.srv, err = startServer(e); err != nil {
		return err
	}
	conn, err := oasis.Dial(w.srv.addr, secret)
	if err != nil {
		return err
	}
	defer conn.Close()
	w.repN = 0
	return conn.PutImage(benchVM, e.sz.image, snap)
}

func (w *reattachServe) close() {
	w.srv.close()
	w.srv = nil
}

func (w *reattachServe) rep(e *env, t *tally) error {
	r := newRNG(e.seed, 0x72656174+w.repN<<32) // "reat"
	first := w.repN == 0
	w.repN++

	mt, pager, err := dialMemtap(e, benchVM, w.srv.addr, nil)
	if t.call(err) != nil {
		return err
	}
	defer mt.Close()
	pvm, err := oasis.NewPartialVM(oasis.NewVMDescriptor(benchVM, "bench", e.sz.image, 1), pager)
	if err != nil {
		return err
	}
	if err := faultPages(e, t, pvm, w.img, w.img.pickPFNs(r, e.sz.faults, nil)); err != nil {
		return err
	}

	s := e.rec.begin("memtap.PrefetchRemaining")
	t0 := time.Now()
	n, err := mt.PrefetchRemaining(pvm, e.sz.prefetchBatch)
	d := time.Since(t0)
	e.rec.end(s)
	if t.call(err) != nil {
		return err
	}
	t.rates = append(t.rates, float64(n)/d.Seconds())
	w.installed += float64(n)

	if first {
		w.zeroElided = float64(mt.ZeroPagesElided())
		w.deduped = float64(mt.DedupedFaults())
		w.reorders = float64(mt.PrefetchReorders())
	}
	w.retries += float64(mt.Resilience().Retries)
	return sameImage(t, pvm, w.img)
}

func (w *reattachServe) finish(*env, *tally) error { return nil }

// faultPages reads each pfn through the partial VM, one closed-loop demand
// fault at a time, and checks what came back.
func faultPages(e *env, t *tally, pvm *oasis.PartialVM, img *desktopImage, pfns []oasis.PFN) error {
	for _, pfn := range pfns {
		e.rec.nextOp()
		t0 := time.Now()
		s := e.rec.begin("hypervisor.Read")
		page, err := pvm.Read(pfn)
		e.rec.end(s)
		d := time.Since(t0)
		if t.call(err) != nil {
			return err
		}
		t.opMs = append(t.opMs, ms(d))
		t.samePage(page, img.page(pfn))
	}
	return nil
}

// sameImage checks every guest page of a converted VM against the source.
func sameImage(t *tally, pvm *oasis.PartialVM, img *desktopImage) error {
	if absent := pvm.AbsentPages(1); len(absent) != 0 {
		return fmt.Errorf("page %d still absent after prefetch", absent[0])
	}
	return sameStored(t, pvm.Image(), img)
}

func (w *reattachServe) layers(e *env, out map[string]float64) {
	rec := e.rec
	out["hypervisor.fault_self_us"] = median(rec.self["hypervisor.Read"]) / 1e3
	out["memtap.fetch_self_us"] = median(rec.self["memtap.FetchPage"]) / 1e3
	out["memserver.get_page_us"] = median(rec.dur["memserver.GetPage"]) / 1e3
	out["memserver.get_page_p99_us"] = percentile(rec.dur["memserver.GetPage"], 99) / 1e3
	out["memserver.get_page_wire_us"] = median(rec.vals["memserver.GetPage.wire"]) / 1e3
	out["memserver.get_page_decompress_us"] = median(rec.vals["memserver.GetPage.decompress"]) / 1e3
	out["memserver.get_pages_ns_per_page"] = sum(rec.dur["memserver.GetPages"]) / sum(rec.vals["memserver.GetPages.pages"])
	out["memtap.prefetch_self_share"] = sum(rec.self["memtap.PrefetchRemaining"]) / sum(rec.dur["memtap.PrefetchRemaining"])
	out["memserver.dial_us"] = median(rec.dur["memserver.Dial"]) / 1e3
	out["memserver.retries"] = w.retries
	out["memserver.wire_bytes_per_page_down"] = float64(w.srv.stats.bytesOut.Load()) /
		(w.installed + float64(len(rec.dur["hypervisor.Read"])))
	out["memtap.zero_elided_pages"] = w.zeroElided
	out["memtap.deduped_faults"] = w.deduped
	out["memtap.prefetch_reorders"] = w.reorders
}
