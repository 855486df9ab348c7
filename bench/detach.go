package main

import (
	"fmt"
	"time"

	"oasis"
)

// detachUpload is the write side: a host about to sleep encodes a VM's
// memory and uploads it to its memory server, in full the first time and
// as differential uploads afterwards. Encoding (lzf + pagestore) is on
// the clock here and nowhere else.
//
// op: one differential detach, EncodeImageDiff + PutDiff of diffPages pages.
// unit: one page shipped, over encode + upload wall of the full image and
// its diffs.
type detachUpload struct {
	img  *desktopImage
	im   *oasis.Image
	srv  *server
	conn oasis.MemConn
	repN uint64

	shipped float64 // pages uploaded, all reps
}

func (w *detachUpload) setup(e *env) (err error) {
	w.img = newDesktopImage(e.seed, e.sz.image)
	if w.im, err = w.img.image(); err != nil {
		return err
	}
	snap, _, err := oasis.EncodeImage(w.im)
	if err != nil {
		return err
	}
	if _, err := w.img.checkMix(len(snap)); err != nil {
		return err
	}
	if w.srv, err = startServer(e); err != nil {
		return err
	}
	w.repN = 0
	w.conn, err = dial(e, w.srv.addr, nil)
	return err
}

func (w *detachUpload) close() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	w.srv.close()
	w.srv = nil
}

func (w *detachUpload) rep(e *env, t *tally) error {
	r := newRNG(e.seed, 0x64657461+w.repN<<32) // "deta"
	id := benchVM + 1 + oasis.VMID(w.repN)
	w.repN++

	t0 := time.Now()
	s := e.rec.begin("pagestore.EncodeImage")
	snap, pages, err := oasis.EncodeImage(w.im)
	e.rec.end(s)
	if t.call(err) != nil {
		return err
	}
	epoch := w.im.NextEpoch()
	e.rec.value("pagestore.EncodeImage.pages", float64(pages))
	e.rec.value("pagestore.EncodeImage.bytes", float64(len(snap)))
	if err := t.call(w.conn.PutImage(id, e.sz.image, snap)); err != nil {
		return err
	}
	wall := time.Since(t0)

	var pfns []oasis.PFN
	for k := 0; k < e.sz.diffs; k++ {
		pfns = w.img.pickPFNs(r, e.sz.diffPages, pfns)
		for _, pfn := range pfns {
			if err := w.im.Write(pfn, w.img.dirty(r, pfn)); err != nil {
				return err
			}
		}
		e.rec.nextOp()
		t0 := time.Now()
		s := e.rec.begin("pagestore.EncodeImageDiff")
		snap, n, err := oasis.EncodeImageDiff(w.im, epoch)
		e.rec.end(s)
		if t.call(err) != nil {
			return err
		}
		epoch = w.im.NextEpoch()
		e.rec.value("pagestore.EncodeImageDiff.pages", float64(n))
		if err := t.call(w.conn.PutDiff(id, snap)); err != nil {
			return err
		}
		d := time.Since(t0)
		t.opMs = append(t.opMs, ms(d))
		wall += d
		pages += n
	}
	t.rates = append(t.rates, float64(pages)/wall.Seconds())
	w.shipped += float64(pages)

	stored, err := w.srv.srv.Store().Get(id)
	if err != nil {
		return fmt.Errorf("server lost vm %d: %w", id, err)
	}
	if err := sameStored(t, stored, w.img); err != nil {
		return err
	}
	return t.call(w.conn.Delete(id))
}

func (w *detachUpload) finish(*env, *tally) error { return nil }

// sameStored checks every guest page a server holds against the source.
func sameStored(t *tally, stored *oasis.Image, img *desktopImage) error {
	for pfn := 0; pfn < img.npages(); pfn++ {
		got, err := stored.Read(oasis.PFN(pfn))
		if err != nil {
			return err
		}
		t.samePage(got, img.page(oasis.PFN(pfn)))
	}
	return nil
}

func (w *detachUpload) layers(e *env, out map[string]float64) {
	rec := e.rec
	imagePages := sum(rec.vals["pagestore.EncodeImage.pages"])
	diffPages := sum(rec.vals["pagestore.EncodeImageDiff.pages"])
	out["pagestore.encode_all_ns_per_page"] = sum(rec.dur["pagestore.EncodeImage"]) / imagePages
	out["pagestore.encode_diff_ns_per_page"] = sum(rec.dur["pagestore.EncodeImageDiff"]) / diffPages
	out["pagestore.snapshot_bytes_per_page"] = sum(rec.vals["pagestore.EncodeImage.bytes"]) / imagePages
	out["memserver.put_image_ns_per_page"] = sum(rec.dur["memserver.PutImage"]) / imagePages
	out["memserver.put_diff_ns_per_page"] = sum(rec.dur["memserver.PutDiff"]) / diffPages
	uploadNs := sum(rec.dur["memserver.PutImage"]) + sum(rec.dur["memserver.PutDiff"])
	out["memserver.server_busy_share"] = float64(w.srv.stats.busyNs.Load()) / uploadNs
	out["memserver.wire_bytes_per_page_up"] = float64(w.srv.stats.bytesIn.Load()) / w.shipped
	// Upload throughput alone, for the fabric's tax_ratio.
	out["memserver.upload_pages_per_s"] = (imagePages + diffPages) / (uploadNs / 1e9)
}
