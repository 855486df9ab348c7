package shard

// Hinted handoff and crash repair.
//
// When a replica write cannot reach its backend, the part is buffered in
// a per-backend hint log and the operation still succeeds as long as
// every range landed on at least one clean replica. When the backend's
// breaker closes again the log replays in order, restoring full
// replication without recopying anything that never changed. Two
// situations escalate from replay to a full per-VM repair: the backend
// restarted empty (its server answers "unknown vm" for a VM this client
// registered), and the hint buffer overflowed (the ordered history is
// gone, so only a rebuild from the surviving replicas is safe). Repair
// runs before replay — a rebuilt image re-registers the VM so queued
// diffs have something to apply to, and the survivors are authoritative
// because every acknowledged write landed on at least one of them.
//
// The dirty-range marks double as a read barrier: a backend with
// unreplayed hints (or a pending repair) holds stale bytes for exactly
// those ranges, and a stale page returned as success is corruption, so
// the read path excludes tainted replicas until the log drains.

import (
	"errors"
	"fmt"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// hint is one buffered replica write.
type hint struct {
	seq    uint64 // per-log identity, assigned on append
	kind   writeKind
	vm     pagestore.VMID
	alloc  units.Bytes
	part   []byte
	opts   memserver.PutOptions
	ranges []int64 // ranges the part covers (dirty marks)
}

// hintLog buffers writes for one unreachable backend.
type hintLog struct {
	queue       []hint
	nextSeq     uint64 // identity source for queued hints
	bytes       int64
	dirty       map[rangeKey]bool
	needsRepair bool // rebuild from survivors before replaying
	replaying   bool // a recovery goroutine is draining the log
}

func (h *hintLog) tainted() bool {
	return h.needsRepair || h.replaying || len(h.queue) > 0 || len(h.dirty) > 0
}

// enqueueIfQueued appends the write to addr's hint log when older hints
// are still queued (or a replay is draining them), preserving FIFO
// order: letting a fresh write skip ahead of queued older ones would
// have the replay resurrect the stale bytes afterwards. Returns whether
// the write was queued.
func (c *Client) enqueueIfQueued(addr string, kind writeKind, id pagestore.VMID, alloc units.Bytes, part []byte, opts memserver.PutOptions, ranges []int64) bool {
	c.hintMu.Lock()
	hl := c.hints[addr]
	if hl == nil || (!hl.replaying && len(hl.queue) == 0 && !hl.needsRepair) {
		c.hintMu.Unlock()
		return false
	}
	c.appendHintLocked(addr, hl, hint{kind: kind, vm: id, alloc: alloc, part: part, opts: opts, ranges: ranges})
	c.hintMu.Unlock()
	c.healthChanged()
	return true
}

// addHint buffers a failed replica write for addr. knownLost marks the
// failure as an unknown-VM refusal — the backend is up but restarted
// empty, so a repair (not just replay) is owed.
func (c *Client) addHint(addr string, h hint, ranges []int64, knownLost bool) {
	h.ranges = ranges
	c.hintMu.Lock()
	hl := c.hints[addr]
	if hl == nil {
		hl = &hintLog{dirty: make(map[rangeKey]bool)}
		c.hints[addr] = hl
	}
	if knownLost {
		hl.needsRepair = true
	}
	c.appendHintLocked(addr, hl, h)
	c.hintMu.Unlock()
	c.healthChanged()
}

// appendHintLocked appends under hintMu, handling overflow: past
// MaxHintBytes the ordered history is abandoned wholesale and the
// backend owes a full repair instead (half a history is worse than
// none — replaying it would interleave stale and fresh bytes).
func (c *Client) appendHintLocked(addr string, hl *hintLog, h hint) {
	if h.kind == wDelete {
		// A delete supersedes everything queued for the VM.
		kept := hl.queue[:0]
		for _, q := range hl.queue {
			if q.vm == h.vm {
				hl.bytes -= int64(len(q.part))
				c.tel.hintsDropped.Inc()
				continue
			}
			kept = append(kept, q)
		}
		hl.queue = kept
	}
	h.seq = hl.nextSeq
	hl.nextSeq++
	hl.queue = append(hl.queue, h)
	hl.bytes += int64(len(h.part))
	for _, rng := range h.ranges {
		hl.dirty[rangeKey{h.vm, rng}] = true
	}
	c.tel.hintsBuffered.Inc()
	c.tel.hintBytes.Add(float64(len(h.part)))
	if hl.bytes > c.cfg.MaxHintBytes {
		c.tel.hintsDropped.Add(float64(len(hl.queue)))
		c.tel.hintBytes.Add(-float64(hl.bytes))
		hl.queue = nil
		hl.bytes = 0
		hl.needsRepair = true
	}
	c.taintRecount()
}

// taintRecount recomputes the fast-path taint counter. Callers hold
// hintMu.
func (c *Client) taintRecount() {
	n := 0
	for _, hl := range c.hints {
		if hl.tainted() {
			n++
		}
	}
	c.taint.Store(int32(n))
}

// healthChanged fires the registered health hook (memtap's degraded
// gauge) and refreshes the under-replication gauge.
func (c *Client) healthChanged() {
	c.spawn(func() { c.refreshHealth() })
}

// markLost flags addr as having lost tracked VM data (observed via an
// unknown-vm refusal from a backend that restarted empty) and arms a
// repair.
func (c *Client) markLost(addr string) {
	c.hintMu.Lock()
	hl := c.hints[addr]
	if hl == nil {
		hl = &hintLog{dirty: make(map[rangeKey]bool)}
		c.hints[addr] = hl
	}
	hl.needsRepair = true
	c.taintRecount()
	c.hintMu.Unlock()
	c.healthChanged()
	c.maybeRecover(addr)
}

// maybeRecover starts a recovery pass for addr — repair if owed, then
// hint replay — unless one is already running or nothing is owed.
func (c *Client) maybeRecover(addr string) { c.triggerRecover(addr, false) }

// triggerRecover is maybeRecover with a force switch: a breaker closing
// (the backend just came back) forces a presence probe of every tracked
// VM even when no hints are queued, because a crash while no write was
// in flight leaves no hint evidence — only missing data.
func (c *Client) triggerRecover(addr string, force bool) {
	c.hintMu.Lock()
	hl := c.hints[addr]
	replaying := hl != nil && hl.replaying
	owes := hl != nil && (hl.needsRepair || len(hl.queue) > 0 || len(hl.dirty) > 0)
	c.hintMu.Unlock()
	if replaying || (!owes && !force) {
		return
	}
	if _, busy := c.recovering.LoadOrStore(addr, struct{}{}); busy {
		return
	}
	ok := c.spawn(func() {
		defer c.recovering.Delete(addr)
		c.recover(addr)
	})
	if !ok {
		c.recovering.Delete(addr)
	}
}

// recover drains addr's debt: verify the backend still holds every VM
// this client tracks (repairing the ones it lost), then replay the hint
// log in order, then clear the taint. Any failure leaves the log (and
// the taint) in place; the prober re-arms recovery on the next tick.
func (c *Client) recover(addr string) {
	st := c.state.Load()
	ref := st.refByAddr(addr)
	if ref == nil {
		// Backend left the fabric while it was down; its debt is moot.
		c.dropHints(addr)
		return
	}
	c.hintMu.Lock()
	hl := c.hints[addr]
	if hl == nil {
		// Forced presence check after a breaker close: synthesize an
		// empty log so the probe/repair phase has somewhere to record
		// what it finds.
		hl = &hintLog{dirty: make(map[rangeKey]bool)}
		c.hints[addr] = hl
	}
	hl.replaying = true
	needsRepair := hl.needsRepair
	c.hintMu.Unlock()

	defer func() {
		c.hintMu.Lock()
		if hl := c.hints[addr]; hl != nil {
			hl.replaying = false
			if !hl.needsRepair && len(hl.queue) == 0 {
				hl.dirty = make(map[rangeKey]bool)
			}
			c.taintRecount()
		}
		c.hintMu.Unlock()
		c.healthChanged()
	}()

	// Phase 1: repair. If the backend restarted empty, rebuild its
	// partition of every tracked VM from the surviving replicas. Probe
	// even without the needsRepair flag — a crash while no write was in
	// flight leaves no hint evidence, only missing data.
	c.mu.Lock()
	vms := make(map[pagestore.VMID]units.Bytes, len(c.images))
	for id, info := range c.images {
		vms[id] = info.alloc
	}
	c.mu.Unlock()
	for id, alloc := range vms {
		lost := needsRepair
		if !lost {
			if _, err := ref.pool.Stats(); err != nil {
				return // still unreachable; retry on next breaker close
			}
			if _, err := ref.pool.GetPage(id, 0); err != nil {
				if !memserver.IsUnknownVM(err) && memserver.IsRemoteError(err) {
					// Serving disabled etc.: the VM is there.
					lost = false
				} else if memserver.IsUnknownVM(err) {
					lost = true
				} else {
					return // transport error; retry later
				}
			}
		}
		if lost {
			if err := c.repairVM(st, ref, id, alloc); err != nil {
				return // retry on next probe tick / breaker close
			}
		}
	}
	if needsRepair {
		// The repair rebuilt from post-crash authoritative state, which
		// already includes everything the queue would replay (writes
		// were queued only after the repair flag was set, and repair
		// runs under each VM's lock after those writes landed on the
		// survivors). Drop the queue rather than replay over the fresh
		// image out of order.
		c.hintMu.Lock()
		if hl := c.hints[addr]; hl != nil {
			c.tel.hintsDropped.Add(float64(len(hl.queue)))
			c.tel.hintBytes.Add(-float64(hl.bytes))
			hl.queue = nil
			hl.bytes = 0
			hl.needsRepair = false
		}
		c.hintMu.Unlock()
	}

	// Phase 2: replay the queue in order. New writes keep appending
	// behind us (enqueueIfQueued sees replaying=true), so the order
	// invariant holds even mid-drain.
	for {
		c.hintMu.Lock()
		if hl := c.hints[addr]; hl == nil || len(hl.queue) == 0 {
			c.hintMu.Unlock()
			return
		}
		h := c.hints[addr].queue[0]
		c.hintMu.Unlock()

		lk := c.vmLock(h.vm)
		lk.Lock()
		err := c.replayOne(ref, h)
		lk.Unlock()
		if err != nil {
			return // leave the queue; retry on next recovery
		}

		c.popReplayed(addr, h)
	}
}

// popReplayed removes the just-replayed hint from addr's queue — by
// identity, not position: a concurrent Delete may have rewritten the
// queue while the head replayed (dropping every hint for its VM, the
// head included), so a positional pop would silently discard a
// different, unreplayed hint and corrupt the byte accounting. If the
// head is gone its bytes were already subtracted by the rewrite; the
// pop is skipped.
func (c *Client) popReplayed(addr string, h hint) {
	c.hintMu.Lock()
	if hl := c.hints[addr]; hl != nil && len(hl.queue) > 0 && hl.queue[0].seq == h.seq {
		hl.queue = hl.queue[1:]
		hl.bytes -= int64(len(h.part))
		c.tel.hintBytes.Add(-float64(len(h.part)))
		c.tel.hintsReplayed.Inc()
	}
	c.hintMu.Unlock()
}

// replayOne applies one buffered write to the rejoined backend.
func (c *Client) replayOne(ref *backendRef, h hint) error {
	err := h.kind.send(ref.pool, h.vm, h.alloc, h.part, h.opts)
	if h.kind == wDelete && memserver.IsUnknownVM(err) {
		err = nil // already gone
	}
	if err != nil && h.kind.diff() && memserver.IsUnknownVM(err) {
		// The backend lost the VM after all: escalate to repair. The
		// hint is consumed — the repair copies fresher bytes anyway.
		// The caller (recover's replay loop) already holds this VM's
		// lock, so the locked variant is mandatory: repairVM would
		// re-acquire the non-reentrant lock and wedge the recovery
		// goroutine forever.
		c.mu.Lock()
		info, tracked := c.images[h.vm]
		c.mu.Unlock()
		if tracked {
			if rerr := c.repairVMLocked(c.state.Load(), ref, h.vm, info.alloc); rerr == nil {
				return nil
			}
		}
	}
	if err == nil {
		c.tel.write(ref.tidx).Inc()
		c.tel.byte(ref.tidx).Add(float64(len(h.part)))
	}
	return err
}

func (k writeKind) diff() bool { return k == wDiff || k == wStreamDiff }

// dropHints discards addr's log entirely (backend left the fabric).
func (c *Client) dropHints(addr string) {
	c.hintMu.Lock()
	if hl := c.hints[addr]; hl != nil {
		c.tel.hintsDropped.Add(float64(len(hl.queue)))
		c.tel.hintBytes.Add(-float64(hl.bytes))
		delete(c.hints, addr)
		c.taintRecount()
	}
	c.hintMu.Unlock()
	c.healthChanged()
}

// hintLogClean reports whether addr has no hint debt at all (the
// rebalancer refuses to verify-copy onto a backend that still owes
// replays — the queue would overwrite the fresh copy).
func (c *Client) hintLogClean(addr string) bool {
	c.hintMu.Lock()
	hl := c.hints[addr]
	clean := hl == nil || !hl.tainted()
	c.hintMu.Unlock()
	return clean
}

// repairVM rebuilds addr's partition of one VM from the surviving
// replicas: fetch every page range the backend owns (under the current
// ring, and the previous one mid-transition) from a clean other owner,
// assemble a fresh image, and PutImage it — an atomic whole-image
// replace, which is the only write that also *clears* stale non-zero
// pages (diffs elide zeroes). The caller must NOT hold the VM lock;
// callers that already do (the replay path) use repairVMLocked.
func (c *Client) repairVM(st *epochState, ref *backendRef, id pagestore.VMID, alloc units.Bytes) error {
	lk := c.vmLock(id)
	lk.Lock()
	defer lk.Unlock()
	return c.repairVMLocked(st, ref, id, alloc)
}

// repairVMLocked is repairVM's body; the caller holds the VM lock.
func (c *Client) repairVMLocked(st *epochState, ref *backendRef, id pagestore.VMID, alloc units.Bytes) error {
	im := pagestore.NewImage(alloc)
	pages := alloc.Pages()
	rp := st.ring.RangePages()
	batch := int64(c.cfg.RebalanceBatchPages)
	for start := int64(0); start < pages; start += rp {
		end := start + rp
		if end > pages {
			end = pages
		}
		owned := ownsRange(st.ring, ref.addr, id, pagestore.PFN(start))
		if !owned && st.prevRing != nil {
			owned = ownsRange(st.prevRing, ref.addr, id, pagestore.PFN(start))
		}
		if !owned {
			continue
		}
		for bs := start; bs < end; bs += batch {
			be := bs + batch
			if be > end {
				be = end
			}
			pfns := make([]pagestore.PFN, 0, be-bs)
			for p := bs; p < be; p++ {
				pfns = append(pfns, pagestore.PFN(p))
			}
			got, err := c.fetchFromSurvivors(st, ref.addr, id, pfns)
			if err != nil {
				return err
			}
			for pfn, pg := range got {
				if err := im.Write(pfn, pg); err != nil {
					return fmt.Errorf("shard: repair vm %04d: %w", id, err)
				}
			}
			c.rateLimit(int64(len(got)) * int64(units.PageSize))
		}
	}
	enc, _, err := pagestore.EncodeAll(im)
	if err != nil {
		return fmt.Errorf("shard: repair vm %04d: encode: %w", id, err)
	}
	if err := ref.pool.PutImage(id, alloc, enc); err != nil {
		return fmt.Errorf("shard: repair vm %04d: put: %w", id, err)
	}
	c.tel.repairs.Inc()
	c.tel.rebalBytes.Add(float64(len(enc)))
	c.tel.write(ref.tidx).Inc()
	c.tel.byte(ref.tidx).Add(float64(len(enc)))
	return nil
}

// ownsRange reports whether addr owns the range containing pfn in r.
func ownsRange(r *Ring, addr string, id pagestore.VMID, pfn pagestore.PFN) bool {
	for _, a := range r.OwnerAddrs(id, pfn) {
		if a == addr {
			return true
		}
	}
	return false
}

// fetchFromSurvivors reads a page batch from any clean replica other
// than exclude, trying current owners first, then (mid-transition) the
// previous ones.
func (c *Client) fetchFromSurvivors(st *epochState, exclude string, id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	key := rangeKey{id, rngOf(st.ring, pfns[0])}
	var refs []*backendRef
	if st.prevRing != nil && c.isPending(key) {
		// Mid-migration the new owners hold registered-but-empty images
		// whose absent pages read back as zeroes; like the read path,
		// repair must treat only the previous owners as authoritative
		// until the copy verifies, or it would rebuild with zeros.
		for _, i := range st.prevRing.Owners(id, pfns[0]) {
			refs = appendRef(refs, st.prev[i])
		}
	} else {
		for _, i := range st.ring.Owners(id, pfns[0]) {
			refs = appendRef(refs, st.cur[i])
		}
		if st.prevRing != nil {
			for _, i := range st.prevRing.Owners(id, pfns[0]) {
				refs = appendRef(refs, st.prev[i])
			}
		}
	}
	var errs []error
	for _, ref := range refs {
		if ref.addr == exclude || c.isTainted(ref.addr, key) {
			continue
		}
		got, err := ref.pool.GetPages(id, pfns)
		if err != nil {
			errs = append(errs, fmt.Errorf("backend %s: %w", ref.addr, err))
			continue
		}
		return got, nil
	}
	if len(errs) == 0 {
		return nil, fmt.Errorf("shard: vm %04d range %d: no clean surviving replica", id, key.rng)
	}
	return nil, fmt.Errorf("shard: vm %04d range %d: all survivors failed: %w", id, key.rng, errors.Join(errs...))
}
