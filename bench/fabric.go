package main

import (
	"fmt"
	"slices"
	"time"

	"oasis"
	"oasis/internal/pagestore"
)

const (
	fabricBackends = 3
	fabricReplicas = 2
)

// fabricR2 runs the two single-server workloads' operations through the
// sharded fabric: three memory servers, every page range written to two.
// The image is encoded once in setup and diffs are encoded off the clock,
// so what is timed is shard (partition, replica fan-out, ring lookups)
// over memserver, and no codec.
//
// op: one demand fault through the fabric.
// unit: one page uploaded, over PutImage + PutDiff wall.
type fabricR2 struct {
	img       *desktopImage
	im        *oasis.Image
	snap      []byte
	snapPages int
	srvs      []*server
	addrs     []string
	fab       oasis.MemConn
	repN      uint64

	uploadedBytes float64 // snapshot bytes handed to the fabric, all reps

	// what finish measured
	partitionNsPerPage, failoverReads, underreplicated float64
}

func (w *fabricR2) setup(e *env) (err error) {
	w.img = newDesktopImage(e.seed, e.sz.image)
	if w.im, err = w.img.image(); err != nil {
		return err
	}
	if w.snap, w.snapPages, err = oasis.EncodeImage(w.im); err != nil {
		return err
	}
	if _, err := w.img.checkMix(len(w.snap)); err != nil {
		return err
	}
	w.img.keepBase()
	w.srvs, w.addrs = nil, nil
	for i := 0; i < fabricBackends; i++ {
		s, err := startServer(e)
		if err != nil {
			return err
		}
		w.srvs = append(w.srvs, s)
		w.addrs = append(w.addrs, s.addr)
	}
	w.repN = 0
	w.fab, err = dial(e, "", w.addrs)
	return err
}

func (w *fabricR2) close() {
	if w.fab != nil {
		w.fab.Close()
		w.fab = nil
	}
	for _, s := range w.srvs {
		s.close()
	}
	w.srvs = nil
}

func (w *fabricR2) rep(e *env, t *tally) error {
	r := newRNG(e.seed, 0x66616272+w.repN<<32) // "fabr"
	id := benchVM + 1 + oasis.VMID(w.repN)
	w.repN++

	t0 := time.Now()
	if err := t.call(w.fab.PutImage(id, e.sz.image, w.snap)); err != nil {
		return err
	}
	wall := time.Since(t0)
	pages := w.snapPages
	w.uploadedBytes += float64(len(w.snap))
	e.rec.value("shard.PutImage.pages", float64(w.snapPages))

	epoch := w.im.NextEpoch()
	var dirtied []oasis.PFN
	for k := 0; k < e.sz.diffs; k++ {
		pfns := w.img.pickPFNs(r, e.sz.diffPages, nil)
		for _, pfn := range pfns {
			if err := w.im.Write(pfn, w.img.dirty(r, pfn)); err != nil {
				return err
			}
		}
		dirtied = append(dirtied, pfns...)
		diff, n, err := oasis.EncodeImageDiff(w.im, epoch)
		if err != nil {
			return err
		}
		epoch = w.im.NextEpoch()
		t0 := time.Now()
		if err := t.call(w.fab.PutDiff(id, diff)); err != nil {
			return err
		}
		wall += time.Since(t0)
		pages += n
		w.uploadedBytes += float64(len(diff))
		e.rec.value("shard.PutDiff.pages", float64(n))
	}
	t.rates = append(t.rates, float64(pages)/wall.Seconds())

	if err := w.wake(e, t, id, r); err != nil {
		return err
	}
	// Back to the image the kept snapshot encodes, for the next rep.
	if err := w.img.restore(dirtied, w.im); err != nil {
		return err
	}
	return t.call(w.fab.Delete(id))
}

// wake reattaches the VM through a fabric memtap: demand faults, then the
// conversion to a full VM, then a check of every page.
func (w *fabricR2) wake(e *env, t *tally, id oasis.VMID, r *rng) error {
	mt, pager, err := dialMemtap(e, id, "", w.addrs)
	if t.call(err) != nil {
		return err
	}
	defer mt.Close()
	pvm, err := oasis.NewPartialVM(oasis.NewVMDescriptor(id, "bench", e.sz.image, 1), pager)
	if err != nil {
		return err
	}
	if err := faultPages(e, t, pvm, w.img, w.img.pickPFNs(r, e.sz.faults, nil)); err != nil {
		return err
	}
	s := e.rec.begin("memtap.PrefetchRemaining")
	_, err = mt.PrefetchRemaining(pvm, e.sz.prefetchBatch)
	e.rec.end(s)
	if t.call(err) != nil {
		return err
	}
	return sameImage(t, pvm, w.img)
}

// finish closes one backend and reads through the fabric: with two
// replicas of every range, no read may fail.
func (w *fabricR2) finish(e *env, t *tally) error {
	if e.rec != nil {
		// PartitionSnapshot with the owners the fabric's ring gives: the
		// write-side primitive under PutImage, alone. Probed here, before
		// a dead backend gives the fabric's repair machinery work to do.
		ring := w.shardClient().Ring()
		var err error
		w.partitionNsPerPage = medianOp(9, func() {
			_, err = pagestore.PartitionSnapshot(w.snap, fabricBackends,
				func(pfn oasis.PFN) []int { return ring.Owners(benchVM, pfn) })
		}) / float64(w.snapPages)
		if err != nil {
			return err
		}
	}
	id := benchVM
	if err := t.call(w.fab.PutImage(id, e.sz.image, w.snap)); err != nil {
		return err
	}
	w.uploadedBytes += float64(len(w.snap))
	failovers := oasis.DefaultMetrics().Counter("oasis_shard_read_failovers_total", "")
	before := failovers.Value()
	w.srvs[0].close()
	r := newRNG(e.seed, 0x6b696c6c) // "kill"
	for _, pfn := range w.img.pickPFNs(r, e.sz.killReads, nil) {
		page, err := w.fab.GetPage(id, pfn)
		if t.call(err) != nil {
			return fmt.Errorf("read of page %d with one backend down: %w", pfn, err)
		}
		t.samePage(page, w.img.page(pfn))
	}
	w.failoverReads = failovers.Value() - before
	w.underreplicated = float64(w.shardClient().UnderreplicatedRanges())
	return nil
}

// shardClient is the fabric client behind w.fab, traced or not.
func (w *fabricR2) shardClient() *oasis.ShardClient {
	if tc, ok := w.fab.(*tracedConn); ok {
		return tc.MemConn.(*oasis.ShardClient)
	}
	return w.fab.(*oasis.ShardClient)
}

func (w *fabricR2) layers(e *env, out map[string]float64) {
	rec := e.rec
	imagePages := sum(rec.vals["shard.PutImage.pages"])
	diffPages := sum(rec.vals["shard.PutDiff.pages"])
	out["shard.put_image_ns_per_page"] = sum(rec.dur["shard.PutImage"]) / imagePages
	out["shard.put_diff_ns_per_page"] = sum(rec.dur["shard.PutDiff"]) / diffPages
	out["shard.get_page_us"] = median(rec.dur["shard.GetPage"]) / 1e3
	out["shard.get_page_p99_us"] = percentile(rec.dur["shard.GetPage"], 99) / 1e3
	out["shard.get_pages_ns_per_page"] = sum(rec.dur["shard.GetPages"]) / sum(rec.vals["shard.GetPages.pages"])
	uploadNs := sum(rec.dur["shard.PutImage"]) + sum(rec.dur["shard.PutDiff"])
	out["shard.upload_pages_per_s"] = (imagePages + diffPages) / (uploadNs / 1e9)

	var in []float64
	for _, s := range w.srvs {
		in = append(in, float64(s.stats.bytesIn.Load()))
	}
	out["shard.write_amplification"] = sum(in) / w.uploadedBytes
	out["shard.backend_skew"] = slices.Max(in) / (sum(in) / float64(len(in)))
	out["pagestore.partition_ns_per_page"] = w.partitionNsPerPage
	out["shard.failover_reads"] = w.failoverReads
	out["shard.underreplicated_ranges"] = w.underreplicated
}
