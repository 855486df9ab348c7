package shard

// Live membership and the background rebalancer.
//
// AddBackend/RemoveBackend derive a new ring and swap the whole
// membership epoch atomically under the client; operations already in
// flight finish against the epoch they loaded. Before the swap, every
// range whose replica set changed is marked pending: pending ranges keep
// reading from (and, for writes, also writing to) their previous owners,
// because a new owner holds a registered-but-empty image whose absent
// pages would read back as zeroes — legitimate-looking wrong bytes (the
// route, in client.go, is where that rule lives). The rebalancer then
// walks the pending set, copying each range from a clean previous owner
// to its new owners in bounded-rate batches and reading every batch back
// byte-for-byte before the range flips over; repair reuses the copy. Only
// ranges whose ownership moved are copied; the sweep is resumable (a
// failed range stays pending and is retried) and a crash of the client
// process loses only bookkeeping — the data is still fully readable on
// the old owners, and re-issuing the membership change resumes the copy.

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// rebalanceRetryPause is the backoff between sweeps over ranges whose
// migration failed (source unreachable, destination still draining
// hints).
const rebalanceRetryPause = 50 * time.Millisecond

// AddBackend grows the fabric: the new backend is dialed and probed,
// registered with every tracked VM, and swapped into the ring; the
// background rebalancer then migrates the ranges that moved to it.
// Returns once the new epoch is live (use WaitRebalance to block until
// the data movement completes). Fails if a membership change is already
// in flight.
func (c *Client) AddBackend(addr string) error {
	return c.changeMembership(addr, true)
}

// RemoveBackend shrinks the fabric. The departing backend keeps serving
// reads for the ranges it owned until their new copies are verified (a
// planned drain); if it is dead, the surviving replicas serve as the
// copy source instead, which is also the fabric's re-replication path
// for ranges that dropped below their replica target. Returns once the
// new epoch is live. Fails if a membership change is already in flight.
func (c *Client) RemoveBackend(addr string) error {
	return c.changeMembership(addr, false)
}

func (c *Client) changeMembership(addr string, add bool) error {
	select {
	case c.adminSem <- struct{}{}:
	default:
		return fmt.Errorf("shard: membership change already in progress (ring version %d)", c.RingVersion())
	}
	release := func() { <-c.adminSem }

	st := c.state.Load()
	var (
		newRing *Ring
		joined  *backendRef
		err     error
	)
	if add {
		newRing, err = st.ring.WithBackend(addr)
	} else {
		newRing, err = st.ring.WithoutBackend(addr)
	}
	if err != nil {
		release()
		return err
	}

	// Tracked VMs at the moment of the swap: the set the transition
	// registers and rebalances. Images uploaded later write through the
	// new ring directly and need no migration.
	images := c.imageAllocs()

	if add {
		joined = c.newBackendRef(addr)
		if _, err := joined.pool.Stats(); err != nil {
			joined.pool.Close() //nolint:errcheck // never served traffic
			release()
			return fmt.Errorf("shard: backend %s not reachable: %w", addr, err)
		}
		// Register every tracked VM with an empty image before any read
		// or write can route to the newcomer. This also wipes whatever a
		// re-added backend still held — its data is stale by definition,
		// and the migration below recopies the ranges it now owns from
		// the authoritative replicas.
		for id := range images {
			lk := c.vmLock(id)
			lk.Lock()
			info, still := c.image(id) // else deleted while the change was being prepared
			if still {
				err = c.registerEmpty(joined, id, info.alloc)
			}
			lk.Unlock()
			if err != nil {
				joined.pool.Close() //nolint:errcheck
				release()
				return fmt.Errorf("shard: backend %s: register vm %04d: %w", addr, id, err)
			}
		}
	}

	// New backendRef slice aligned with the new ring's address order,
	// reusing the live refs (their pools, breakers and telemetry indices
	// carry over).
	newAddrs := newRing.Addrs()
	cur := make([]*backendRef, len(newAddrs))
	for i, a := range newAddrs {
		if joined != nil && a == addr {
			cur[i] = joined
			continue
		}
		cur[i] = st.refByAddr(a)
	}

	// Mark the moved ranges pending BEFORE the swap: the instant the new
	// epoch is visible, readers must already know which ranges still
	// live on the old owners.
	moved := movedRanges(st.ring, newRing, images)
	c.pendMu.Lock()
	for _, k := range moved {
		c.pending[k] = true
	}
	c.pendMu.Unlock()

	next := &epochState{
		version:  st.version + 1,
		ring:     newRing,
		cur:      cur,
		prevRing: st.ring,
		prev:     st.cur,
	}
	done := make(chan struct{})
	c.mu.Lock()
	c.transDone = done
	c.lastRebalErr = nil
	c.mu.Unlock()
	c.state.Store(next)
	c.tel.backends.Set(float64(len(cur)))
	c.tel.replicas.Set(float64(newRing.Replicas()))
	c.tel.ringVersion.Set(float64(next.version))
	c.tel.rebalances.Inc()
	c.refreshHealth()

	// Catch up images that appeared during the prepare window. An
	// upload that completed against the old epoch between the snapshot
	// above and the swap is neither registered on a joining backend nor
	// covered by the moved-range marks, so post-swap reads of its moved
	// ranges would hit the newcomer empty-handed. Any such image is in
	// c.images by now or its writer will observe the new version and
	// re-run the fan-out itself (writeSnapshot publishes the record
	// before validating the epoch), so a re-diff here closes the window
	// from both sides. Runs before the rebalancer spawns so the new
	// pending marks are in its first sweep.
	c.catchUpLateImages(st.ring, next, images, joined)

	if !c.spawn(func() { c.runRebalance(next, done) }) {
		// Client closed mid-change: settle synchronously so the epoch is
		// at least consistent.
		c.settle(next, done)
	}
	return nil
}

// registerEmpty creates the VM on ref as an empty image (an atomic
// whole-image replace, which also wipes whatever ref held). The caller
// holds the VM lock, so it cannot interleave with a live upload of the
// same VM.
func (c *Client) registerEmpty(ref *backendRef, id pagestore.VMID, alloc units.Bytes) error {
	enc, _, err := pagestore.EncodeAll(pagestore.NewImage(alloc))
	if err != nil {
		return err
	}
	return ref.pool.PutImage(id, alloc, enc)
}

// catchUpLateImages brings images uploaded during a membership change's
// prepare window into the transition: any tracked image that is not in
// the prepare-time snapshot and whose last fan-out ran under the old
// epoch gets registered on the joining backend and its moved ranges
// marked pending, exactly as the snapshot-time images were before the
// swap. The per-VM lock serializes against the uploader: once it is
// held, the image's epoch tag is settled — a writer that recorded an
// old tag after this pass re-checks the version itself and re-runs its
// fan-out (writeSnapshot's publish-then-validate), so no image escapes
// both passes.
func (c *Client) catchUpLateImages(oldRing *Ring, next *epochState, known map[pagestore.VMID]units.Bytes, joined *backendRef) {
	c.mu.Lock()
	late := make(map[pagestore.VMID]units.Bytes)
	for id, info := range c.images {
		if _, ok := known[id]; ok || info.epoch >= next.version {
			continue
		}
		late[id] = info.alloc
	}
	c.mu.Unlock()
	for id, alloc := range late {
		lk := c.vmLock(id)
		lk.Lock()
		// Re-check under the VM lock: the uploader may have re-run its
		// fan-out under the new epoch (or deleted the VM) meanwhile.
		c.mu.Lock()
		info, still := c.images[id]
		c.mu.Unlock()
		if !still || info.epoch >= next.version {
			lk.Unlock()
			continue
		}
		if joined != nil {
			if err := c.registerEmpty(joined, id, alloc); err != nil {
				// The new epoch is already live, so there is nothing to
				// unwind; arm a repair instead — the newcomer rebuilds
				// this VM from the survivors once reachable, and the
				// pending marks below keep its reads on the old owners
				// until then.
				c.markLost(joined.addr)
			}
		}
		c.pendMu.Lock()
		for _, k := range movedRanges(oldRing, next.ring, map[pagestore.VMID]units.Bytes{id: alloc}) {
			c.pending[k] = true
		}
		c.pendMu.Unlock()
		lk.Unlock()
	}
}

// movedRanges lists every (vm, range) whose replica set differs between
// the two rings. Owner sets are compared by address, so index
// permutations do not count as movement.
func movedRanges(oldRing, newRing *Ring, images map[pagestore.VMID]units.Bytes) []rangeKey {
	var moved []rangeKey
	rp := newRing.RangePages()
	for id, alloc := range images {
		pages := alloc.Pages()
		for rng := int64(0); rng*rp < pages; rng++ {
			pfn := pagestore.PFN(rng * rp)
			if !sameAddrSet(oldRing.OwnerAddrs(id, pfn), newRing.OwnerAddrs(id, pfn)) {
				moved = append(moved, rangeKey{id, rng})
			}
		}
	}
	return moved
}

func sameAddrSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// runRebalance drains the pending set: sweep, migrate what it can,
// back off, retry what failed — until every range flipped over or the
// client closes. Then the transition settles: the previous ring is
// dropped and any backend that left the membership has its pool closed.
func (c *Client) runRebalance(st *epochState, done chan struct{}) {
	for {
		c.pendMu.RLock()
		keys := make([]rangeKey, 0, len(c.pending))
		for k := range c.pending {
			keys = append(keys, k)
		}
		c.pendMu.RUnlock()
		if len(keys) == 0 {
			break
		}
		var lastErr error
		for _, k := range keys {
			select {
			case <-c.done:
				return // resumes when the change is re-issued
			default:
			}
			if err := c.migrateRange(st, k); err != nil {
				lastErr = err
			}
		}
		if lastErr == nil {
			continue // flush any ranges added between snapshot and now
		}
		c.mu.Lock()
		c.lastRebalErr = lastErr
		c.mu.Unlock()
		select {
		case <-c.done:
			return
		case <-time.After(rebalanceRetryPause):
		}
	}
	c.settle(st, done)
}

// settle completes a transition: drop the previous ring from the epoch,
// close the pools of backends that are no longer members, release the
// admin slot and wake WaitRebalance callers.
func (c *Client) settle(st *epochState, done chan struct{}) {
	settled := &epochState{version: st.version, ring: st.ring, cur: st.cur}
	c.state.Store(settled)
	for _, ref := range st.prev {
		if settled.refByAddr(ref.addr) == nil {
			ref.pool.Close() //nolint:errcheck // retired backend
			c.dropHints(ref.addr)
		}
	}
	c.mu.Lock()
	c.transDone = nil
	c.mu.Unlock()
	<-c.adminSem
	c.refreshHealth()
	close(done)
}

// migrateRange fills one pending range's new owners and flips its reads
// over once every copy verified. Holding the VM lock serializes the copy
// against writes, hint replays and repairs of the same VM.
func (c *Client) migrateRange(st *epochState, k rangeKey) error {
	lk := c.vmLock(k.vm)
	lk.Lock()
	defer lk.Unlock()
	if !c.isPending(k) {
		return nil
	}
	info, tracked := c.image(k.vm)
	rp := st.ring.RangePages()
	if !tracked || k.rng*rp >= info.alloc.Pages() {
		c.clearPending(k) // deleted mid-transition: nothing to move
		return nil
	}
	// A pure shrink of the replica set (or a clamp change) has nothing to
	// fill: the surviving owners already hold the range.
	if r := c.route(st, k); len(r.fill) > 0 {
		// Refuse to copy onto a backend that still owes hint replays —
		// the queued writes would land on top of (and behind) the fresh
		// copy in unknown order.
		for _, dst := range r.fill {
			if !c.hintLogClean(dst.addr) {
				return fmt.Errorf("shard: vm %04d range %d: destination %s draining hints", k.vm, k.rng, dst.addr)
			}
		}
		if err := c.copyRange(r.read, r.fill, k, info.alloc, rp); err != nil {
			return err
		}
	}
	c.clearPending(k)
	c.tel.rebalRanges.Inc()
	return nil
}

// copyRange is the one copy path, under both the rebalancer and repair:
// it copies range k onto dsts batch by batch — read the batch from a
// clean replica of src through readVia, encode an explicit entry for
// every page (zero pages included, so stale bytes on a destination are
// overwritten), PutDiff it to each destination, read it back and
// byte-verify, then pace. The caller holds the VM lock, so the source
// cannot change under the verify.
func (c *Client) copyRange(src, dsts []*backendRef, k rangeKey, alloc units.Bytes, rp int64) error {
	var from []*backendRef
	for _, ref := range src {
		if !hasAddr(dsts, ref.addr) {
			from = append(from, ref)
		}
	}
	end := min((k.rng+1)*rp, alloc.Pages())
	batch := int64(c.cfg.RebalanceBatchPages)
	for bs := k.rng * rp; bs < end; bs += batch {
		pfns := make([]pagestore.PFN, 0, batch)
		for p := bs; p < min(bs+batch, end); p++ {
			pfns = append(pfns, pagestore.PFN(p))
		}
		var got map[pagestore.PFN][]byte
		served, errs := c.readVia(from, k.vm, []rangeKey{k}, func(p *memserver.ClientPool) (err error) {
			got, err = p.GetPages(k.vm, pfns)
			return err
		})
		switch {
		case served == nil && len(errs) == 0:
			return fmt.Errorf("shard: vm %04d range %d: no clean surviving replica", k.vm, k.rng)
		case served == nil:
			return fmt.Errorf("shard: vm %04d range %d: every source failed: %w", k.vm, k.rng, errors.Join(errs...))
		}
		im := pagestore.NewImage(alloc)
		for pfn, pg := range got {
			if err := im.Write(pfn, pg); err != nil {
				return fmt.Errorf("shard: copy vm %04d range %d: %w", k.vm, k.rng, err)
			}
		}
		enc, err := pagestore.EncodePages(im, pfns)
		if err != nil {
			return fmt.Errorf("shard: copy vm %04d range %d: encode: %w", k.vm, k.rng, err)
		}
		for _, dst := range dsts {
			if err := dst.pool.PutDiff(k.vm, enc); err != nil {
				return fmt.Errorf("shard: copy vm %04d range %d to %s: %w", k.vm, k.rng, dst.addr, err)
			}
			back, err := dst.pool.GetPages(k.vm, pfns)
			if err != nil {
				return fmt.Errorf("shard: copy vm %04d range %d: verify read %s: %w", k.vm, k.rng, dst.addr, err)
			}
			for _, pfn := range pfns {
				if !pagesEqual(got[pfn], back[pfn]) {
					c.tel.rebalVerifyFail.Inc()
					return fmt.Errorf("shard: copy vm %04d range %d: verify mismatch at pfn %d on %s",
						k.vm, k.rng, pfn, dst.addr)
				}
			}
			c.tel.write(dst.tidx).Inc()
			c.tel.byte(dst.tidx).Add(float64(len(enc)))
		}
		n := int64(len(dsts)) * int64(len(enc))
		c.tel.rebalBytes.Add(float64(n))
		c.rateLimit(n)
	}
	return nil
}

// pagesEqual compares two pages, treating nil/empty as a zero page.
func pagesEqual(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return pagestore.IsZeroPage(a) && pagestore.IsZeroPage(b)
	}
	return bytes.Equal(a, b)
}

// rateLimit paces the rebalancer/repair copy streams to
// RebalanceBytesPerSec (0 = unpaced), so data movement does not starve
// foreground page traffic.
func (c *Client) rateLimit(n int64) {
	rate := c.cfg.RebalanceBytesPerSec
	if rate <= 0 || n <= 0 {
		return
	}
	d := time.Duration(float64(n) / float64(rate) * float64(time.Second))
	if d <= 0 {
		return
	}
	select {
	case <-time.After(d):
	case <-c.done:
	}
}

// refreshHealth recomputes the under-replication gauge and notifies the
// registered health hook (the memtap degraded gauge).
func (c *Client) refreshHealth() {
	n := c.computeUnderreplicated()
	c.tel.underrepl.Set(float64(n))
	if fn := c.onHealth.Load(); fn != nil {
		(*fn)()
	}
}

// UnderreplicatedRanges counts tracked page ranges currently served by
// fewer live, clean replicas than their target (the configured replica
// count clamped to the membership size). It is 0 on a healthy fabric
// and returns to 0 once hint replay, repair and rebalancing converge.
func (c *Client) UnderreplicatedRanges() int { return c.computeUnderreplicated() }

func (c *Client) computeUnderreplicated() int {
	st := c.state.Load()
	rp := st.ring.RangePages()
	under := 0
	for id, alloc := range c.imageAllocs() {
		for rng := int64(0); rng*rp < alloc.Pages(); rng++ {
			k := rangeKey{id, rng}
			read := c.route(st, k).read
			live := 0
			for _, ref := range read {
				if ref.pool.BreakerState() != memserver.BreakerOpen && !c.isTainted(ref.addr, k) {
					live++
				}
			}
			if live < len(read) {
				under++
			}
		}
	}
	return under
}

// Status reports the fabric's membership, rebalance and hint state for
// the admin surface.
type Status struct {
	RingVersion           uint64
	Replicas              int
	Backends              []BackendStatus
	Rebalancing           bool
	PendingRanges         int
	UnderreplicatedRanges int
	LastRebalanceError    string
}

// BackendStatus is one backend's health as seen by the fabric client.
type BackendStatus struct {
	Addr        string
	Breaker     string
	Draining    bool // outgoing member still serving mid-transition
	HintQueue   int
	HintBytes   int64
	NeedsRepair bool
}

// FabricStatus snapshots the fabric state (membership epoch, per-backend
// breaker/hint health, rebalance progress).
func (c *Client) FabricStatus() Status {
	st := c.state.Load()
	out := Status{
		RingVersion:           st.version,
		Replicas:              st.ring.Replicas(),
		Rebalancing:           st.prevRing != nil,
		PendingRanges:         c.pendingCount(),
		UnderreplicatedRanges: c.computeUnderreplicated(),
	}
	c.mu.Lock()
	if c.lastRebalErr != nil {
		out.LastRebalanceError = c.lastRebalErr.Error()
	}
	c.mu.Unlock()
	for _, ref := range st.allRefs() {
		bs := BackendStatus{
			Addr:     ref.addr,
			Breaker:  ref.pool.BreakerState().String(),
			Draining: !st.ring.HasBackend(ref.addr),
		}
		c.hintMu.Lock()
		if hl := c.hints[ref.addr]; hl != nil {
			bs.HintQueue = len(hl.queue)
			bs.HintBytes = hl.bytes
			bs.NeedsRepair = hl.needsRepair
		}
		c.hintMu.Unlock()
		out.Backends = append(out.Backends, bs)
	}
	return out
}

// WaitRebalance blocks until the in-flight membership transition (if
// any) has fully settled — every moved range copied and verified — or
// the timeout elapses.
func (c *Client) WaitRebalance(timeout time.Duration) error {
	c.mu.Lock()
	ch := c.transDone
	c.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-time.After(timeout):
		c.mu.Lock()
		err := c.lastRebalErr
		pending := c.pendingCount()
		c.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard: rebalance still running after %v (%d ranges pending): last error: %w",
				timeout, pending, err)
		}
		return fmt.Errorf("shard: rebalance still running after %v (%d ranges pending)", timeout, pending)
	}
}
