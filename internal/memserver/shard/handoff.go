package shard

// Hinted handoff and crash repair.
//
// When a replica write cannot reach its backend, the part is buffered in
// a per-backend hint log and the operation still succeeds as long as
// every range landed on at least one clean replica. When the backend's
// breaker closes again the log replays in order, restoring full
// replication without recopying anything that never changed. Two
// situations escalate from replay to a per-VM repair: the backend
// restarted empty (its server answers "unknown vm" for a VM this client
// registered), and the hint buffer overflowed (the ordered history is
// gone, so only a rebuild from the surviving replicas is safe). A repair
// is the rebalancer's range copy aimed at one backend: register an empty
// image, then copy and byte-verify every range the backend must hold
// from that range's read set. It runs before the replay, under the VM
// lock, and supersedes the VM's queued hints; hints queued after it
// replay on top.
//
// The dirty-range marks double as a read barrier: a backend with
// unreplayed hints holds stale bytes for exactly those ranges, and a
// stale page returned as success is corruption, so the read path
// excludes tainted replicas until the log drains. A backend that owes a
// repair, or is in a recovery pass, is excluded whole.

import (
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
	hl := c.hintLogLocked(addr)
	if knownLost {
		hl.needsRepair = true
	}
	c.appendHintLocked(addr, hl, h)
	c.hintMu.Unlock()
	c.healthChanged()
}

// hintLogLocked returns addr's hint log, creating an empty one. Callers
// hold hintMu.
func (c *Client) hintLogLocked(addr string) *hintLog {
	hl := c.hints[addr]
	if hl == nil {
		hl = &hintLog{dirty: make(map[rangeKey]bool)}
		c.hints[addr] = hl
	}
	return hl
}

// appendHintLocked appends under hintMu, handling overflow: past the
// hint limit the ordered history is abandoned wholesale and the backend
// owes a full repair instead (half a history is worse than none —
// replaying it would interleave stale and fresh bytes).
func (c *Client) appendHintLocked(addr string, hl *hintLog, h hint) {
	if h.kind == wDelete {
		c.dropQueuedLocked(hl, h.vm)
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
	if hl.bytes > c.hintLimit {
		c.tel.hintsDropped.Add(float64(len(hl.queue)))
		c.tel.hintBytes.Add(-float64(hl.bytes))
		hl.queue = nil
		hl.bytes = 0
		hl.needsRepair = true
	}
	c.taintRecount()
}

// dropQueuedLocked discards hl's queued hints for vm, superseded by a
// delete or a repair of the VM. Callers hold hintMu.
func (c *Client) dropQueuedLocked(hl *hintLog, vm pagestore.VMID) {
	kept := hl.queue[:0]
	for _, q := range hl.queue {
		if q.vm != vm {
			kept = append(kept, q)
			continue
		}
		hl.bytes -= int64(len(q.part))
		c.tel.hintBytes.Add(-float64(len(q.part)))
		c.tel.hintsDropped.Inc()
	}
	hl.queue = kept
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

// markLost flags addr as owing a full repair — it lost tracked VM data
// (an unknown-vm refusal from a backend that restarted empty), or a
// repair of it failed part-way — and arms one.
func (c *Client) markLost(addr string) {
	c.hintMu.Lock()
	c.hintLogLocked(addr).needsRepair = true
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
// log in order, then clear the taint. The backend stays out of the read
// set for the whole pass. Any failure leaves the log (and the taint) in
// place; the prober re-arms recovery on the next tick.
func (c *Client) recover(addr string) {
	ref := c.state.Load().refByAddr(addr)
	if ref == nil {
		// Backend left the fabric while it was down; its debt is moot.
		c.dropHints(addr)
		return
	}
	c.hintMu.Lock()
	hl := c.hintLogLocked(addr)
	hl.replaying = true
	needsRepair := hl.needsRepair
	c.taintRecount()
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

	// Phase 1: repair. Rebuild every tracked VM the backend lost — all
	// of them when a repair is owed. Probe even without the needsRepair
	// flag: a crash while no write was in flight leaves no hint
	// evidence, only missing data.
	vms := c.imageAllocs()
	if !needsRepair && len(vms) > 0 {
		if _, err := ref.pool.Stats(); err != nil {
			return // still unreachable; retry on next breaker close
		}
	}
	for id := range vms {
		if !needsRepair {
			_, err := ref.pool.GetPage(id, 0)
			if err == nil || (memserver.IsRemoteError(err) && !memserver.IsUnknownVM(err)) {
				continue // the VM is there (a refusal is serving disabled etc.)
			}
			if !memserver.IsUnknownVM(err) {
				return // transport error; retry later
			}
		}
		lk := c.vmLock(id)
		lk.Lock()
		err := c.repairVM(ref, id)
		lk.Unlock()
		if err != nil {
			return // owed again; retry on next probe tick / breaker close
		}
	}
	if needsRepair {
		c.hintMu.Lock()
		if hl := c.hints[addr]; hl != nil {
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

// replayOne applies one buffered write to the rejoined backend. A diff
// answered with unknown-VM means the backend lost the VM after all: the
// replay escalates to a repair, which supersedes the hint (and is a
// no-op for a VM this client does not track: there is nothing to apply
// the diff to). The caller, recover's replay loop, holds the VM lock
// repairVM needs; taking it again would wedge the recovery goroutine.
func (c *Client) replayOne(ref *backendRef, h hint) error {
	err := c.sendPart(h.kind, ref, h.vm, h.alloc, h.part, h.opts)
	if h.kind == wDiff && memserver.IsUnknownVM(err) {
		return c.repairVM(ref, h.vm)
	}
	return err
}

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

// repairVM rebuilds ref's copy of one VM the way the rebalancer fills a
// new owner: register an empty image (the one write that also clears
// stale pages, which diffs elide), then copy and verify every range
// whose write set holds ref, from that range's read set. The caller
// holds the VM lock, so no write of the VM can queue behind the copy:
// the VM's queued hints are older than the bytes copied, and are
// dropped. Outside tests it runs inside ref's recovery pass, which keeps
// ref out of the read set until the last range verifies. A failed
// repair leaves ref owing a full one.
func (c *Client) repairVM(ref *backendRef, id pagestore.VMID) error {
	info, tracked := c.image(id)
	if !tracked {
		return nil // deleted meanwhile, or never registered by this client
	}
	st := c.state.Load()
	rp := st.ring.RangePages()
	err := c.registerEmpty(ref, id, info.alloc)
	for rng := int64(0); err == nil && rng*rp < info.alloc.Pages(); rng++ {
		k := rangeKey{id, rng}
		if r := c.route(st, k); hasAddr(r.write, ref.addr) {
			err = c.copyRange(r.read, []*backendRef{ref}, k, info.alloc, rp)
		}
	}
	if err != nil {
		c.markLost(ref.addr)
		return fmt.Errorf("shard: repair vm %04d on %s: %w", id, ref.addr, err)
	}
	c.hintMu.Lock()
	if hl := c.hints[ref.addr]; hl != nil {
		c.dropQueuedLocked(hl, id)
	}
	c.hintMu.Unlock()
	c.tel.repairs.Inc()
	return nil
}
