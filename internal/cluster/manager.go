package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"oasis/internal/host"
	"oasis/internal/placement"
	"oasis/internal/power"
	"oasis/internal/units"
	"oasis/internal/vm"
)

// Tick advances the manager by one planning interval (§3.1: "The cluster
// manager makes migration plans at periodic intervals"). active[i] gives
// the trace's activity bit for c.VMs[i] during the interval that starts
// now. The caller is responsible for advancing the simulation clock
// between ticks (sim.RunUntil), which fires the asynchronous host
// transitions the tick schedules.
func (c *Cluster) Tick(active []bool) error {
	if len(active) != len(c.VMs) {
		return fmt.Errorf("cluster: Tick with %d activity bits for %d VMs", len(active), len(c.VMs))
	}

	// 1. Accrue dirty state and working-set growth over the elapsed
	// interval, collecting consolidation hosts newly exhausted by growth.
	c.accrue()

	// 1b. Inject memory-server outages (no-op unless configured) and walk
	// the degradation ladder for the partial VMs they strand. This runs
	// before activity transitions: a VM whose server died is promoted
	// home as a full VM, so a simultaneous activation sees it full. The
	// correlated burst (rack-scale event) fires before the independent
	// MTBF rolls so the burst always sees the pre-tick serving set.
	c.injectCorrelatedOutage()
	c.injectMemServerOutages()

	// 2. Apply activity transitions: only the VMs whose bit differs
	// from the last row, in VMs order. Activations may trigger
	// conversions, relocations, or wake-the-home returns.
	wentIdle := c.wentIdle[:0]
	for i, a := range active {
		if a == c.prev[i] {
			continue
		}
		v := c.VMs[i]
		if a {
			c.activate(v)
			continue
		}
		c.setActive(v, false)
		// A fresh idle episode begins: resample the idle working set (it
		// is an episode property — what this idle period's background
		// activity touches — not a monotone attribute). The VM is full
		// right now, so its charged footprint is unaffected until it is
		// partially migrated.
		if !v.Partial {
			v.WorkingSet = c.sampleWS(v.Class)
		}
		wentIdle = append(wentIdle, v)
	}
	copy(c.prev, active)
	c.wentIdle = wentIdle

	// 3. FulltoPartial/NewHome: exchange consolidated full VMs that went
	// idle for partial VMs (§3.2), batched per home host.
	if c.Cfg.Policy == FulltoPartial || c.Cfg.Policy == NewHome {
		c.exchangeIdleFulls(wentIdle)
	}

	// 4. Handle growth-driven exhaustion (one relief per host per tick).
	c.relieveExhausted()

	// 5. Plan and execute vacations of compute hosts.
	c.planVacate()

	// 6. Suspend empty consolidation hosts (they sleep by default, §3.1)
	// unless this tick's plan is about to land VMs on them.
	for _, h := range c.consHosts() {
		if h.Powered() && h.NumVMs() == 0 && !c.woken[h.ID] {
			c.suspendHost(h)
		}
	}

	// 7. Resolve this tick's transition-delay samples in arrival order.
	c.flushDelays()

	// 8. Sample consolidation ratios for Figure 9.
	for _, h := range c.consHosts() {
		if h.Powered() {
			c.Stats.ConsRatio.Add(float64(h.NumVMs()))
		}
	}

	// 9. Mirror cumulative stats into the live oasis_sim_* gauges
	// (observation only; never feeds back into the simulation). Fleet
	// worker cells skip it: see Config.NoTelemetry.
	if !c.Cfg.NoTelemetry {
		c.publishTelemetry()
	}
	return nil
}

// accrue advances the cluster one interval: every VM's dirty counters
// are owed one more tick (metaOf settles them), and working sets grow.
func (c *Cluster) accrue() {
	c.ticks++
	// Working-set growth (§3.2) can exhaust the host. Each host grows its
	// own partial residents and re-accounts once, not once per VM.
	grow := units.Bytes(float64(c.Cfg.WSGrowthPerHour) * c.Cfg.PlanEvery.Hours())
	for _, h := range c.Hosts {
		h.GrowPartials(grow)
	}
}

// setActive flips v between active and idle and tells its host.
func (c *Cluster) setActive(v *vm.VM, active bool) {
	c.metaOf(v) // settle at the old rate before it changes
	v.Active = active
	if active {
		c.nActive++
	} else {
		c.nActive--
	}
	if err := c.hostByID(v.Host).NoteVMStateChanged(v); err != nil {
		panic(fmt.Sprintf("cluster: activity flip invariant: %v", err))
	}
}

// activate handles an idle→active transition (§3.2).
func (c *Cluster) activate(v *vm.VM) {
	c.setActive(v, true)

	if !v.Partial {
		// Full VMs already hold all their resources: zero latency.
		c.Stats.ZeroTransitions++
		return
	}

	// Partial VM: it must acquire its full footprint. All paths incur a
	// reintegration-scale delay (Figure 11); paths that wake the home and
	// return all of its VMs additionally queue the requester somewhere in
	// the bulk return (the paper's "VM resume storm" worst case).
	switch c.Cfg.Policy {
	case OnlyPartial:
		// Jettison behaviour: wake the home, return all of its VMs.
		c.recordPartialDelay(v, c.consolidatedSiblings(v))
		c.wakeHomeAndReturnAll(c.hostByID(v.Home))
	case Default, FulltoPartial:
		if c.convertInPlace(v) {
			c.recordPartialDelay(v, 0)
			return
		}
		c.Stats.Exhaustions++
		c.recordPartialDelay(v, c.consolidatedSiblings(v))
		c.wakeHomeAndReturnAll(c.hostByID(v.Home))
	case NewHome:
		if c.convertInPlace(v) {
			c.recordPartialDelay(v, 0)
			return
		}
		if c.migrateToNewHome(v) {
			c.recordPartialDelay(v, 0)
			return
		}
		c.Stats.Exhaustions++
		c.recordPartialDelay(v, c.consolidatedSiblings(v))
		c.wakeHomeAndReturnAll(c.hostByID(v.Home))
	case FullOnly:
		panic("cluster: partial VM under FullOnly policy")
	}
}

// consolidatedSiblings counts VMs homed with v that currently live away
// from the home — the bulk a wake-the-home return moves.
func (c *Cluster) consolidatedSiblings(v *vm.VM) int {
	n := 0
	for _, u := range c.homeVMs(v.Home) {
		if u.Host != u.Home && u.ID != v.ID {
			n++
		}
	}
	return n
}

// recordPartialDelay notes that a partial VM must acquire its full
// footprint: it queues a delay computation for the end of the tick (the
// queueing model must see this tick's arrivals in time order, so the
// samples are resolved in flushDelays).
func (c *Cluster) recordPartialDelay(v *vm.VM, bulkSiblings int) {
	m := c.metaOf(v)
	dirty := c.reintegrateDirty(m)
	op := c.Cfg.Model.Reintegration(dirty)
	transfer := op.Latency.Seconds() - c.Cfg.Model.ReintegrateOverhead.Seconds()
	if transfer < 0 {
		transfer = 0
	}
	// In a bulk return the requester lands at a random position in the
	// queue of its siblings' reintegrations, all over the home's link.
	bulkWait := c.rand.Float64() * float64(bulkSiblings) * transfer
	c.pendingDelays = append(c.pendingDelays, delayReq{
		home:     v.Home,
		instant:  c.Sim.Now().Seconds() + c.rand.Float64()*c.Cfg.ActivationSpread.Seconds(),
		latency:  op.Latency.Seconds() + bulkWait,
		transfer: transfer,
	})
}

// flushDelays resolves this tick's queued delay samples (Figure 11): the
// arrivals are sorted by their instant within the interval, then each
// waits for its home's NIC to drain earlier transfers. The base latency
// covers the S3 resume and switch-over, which overlap the transfer of
// other VMs to *different* homes but serialize per home.
func (c *Cluster) flushDelays() {
	slices.SortFunc(c.pendingDelays, func(a, b delayReq) int { return cmp.Compare(a.instant, b.instant) })
	for _, d := range c.pendingDelays {
		wait := 0.0
		if busy := c.busyUntil[d.home]; busy > d.instant {
			wait = busy - d.instant
		}
		c.busyUntil[d.home] = d.instant + wait + d.transfer
		c.Stats.DelaySample.Add(d.latency + wait)
	}
	c.pendingDelays = c.pendingDelays[:0]
}

// reintegrateDirty clamps a partial VM's accumulated consolidation-side
// dirty state to the configured floor and cap.
func (c *Cluster) reintegrateDirty(m *vmMeta) units.Bytes {
	d := m.consDirty
	if d < c.Cfg.ReintegrateDirtyFloor {
		d = c.Cfg.ReintegrateDirtyFloor
	}
	if d > c.Cfg.ReintegrateDirtyCap {
		d = c.Cfg.ReintegrateDirtyCap
	}
	return d
}

// endPartialEpisode accounts the traffic of a finishing partial episode:
// the on-demand pages fetched while consolidated, and optionally the dirty
// push of a reintegration.
func (c *Cluster) endPartialEpisode(v *vm.VM, reintegrated bool) {
	m := c.metaOf(v)
	dur := c.Sim.Now().Sub(m.consolidatedAt)
	c.Stats.OnDemandBytes += c.Cfg.Model.OnDemandFetch(classRate(v.Class), v.WorkingSet, dur)
	if reintegrated {
		dirty := c.reintegrateDirty(m)
		c.Stats.ReintegrateBytes += dirty
		c.Stats.Ops[OpReintegrate]++
		// The home's image was stale by exactly this dirty state; it now
		// counts toward the next differential upload.
		m.dirtySinceUpload += dirty
		if m.dirtySinceUpload > v.Alloc {
			m.dirtySinceUpload = v.Alloc
		}
	}
	m.consDirty = 0
}

// convertInPlace turns an activating partial VM into a full VM on its
// consolidation host (§3.2 Default with spare capacity). Returns false if
// the host lacks room.
func (c *Cluster) convertInPlace(v *vm.VM) bool {
	h := c.hostByID(v.Host)
	need := v.FullFootprint() - v.Footprint()
	if h.Free() < need {
		return false
	}
	c.endPartialEpisode(v, false)
	old := v.Footprint()
	v.Partial = false
	if err := h.Recharge(v, old); err != nil {
		panic(fmt.Sprintf("cluster: convert recharge: %v", err))
	}
	c.moved(EvConvert, v, h.ID)
	// Remaining state streams in from the home's memory server, after
	// which the home frees the image (§4.2). The VM keeps its original
	// home for policy purposes: §3.2 returns "all full VMs that were
	// originally homed on the awake host", and FulltoPartial later
	// exchanges this VM back through that home when it goes idle.
	c.Stats.ConvertBytes += v.Alloc - v.WorkingSet
	c.Stats.Ops[OpConvertInPlace]++
	m := c.metaOf(v)
	m.uploaded = false
	m.dirtySinceUpload = 0
	return true
}

// migrateToNewHome relocates an activating partial VM in full to any
// powered host with room (§3.2 NewHome). Returns false if none fits.
func (c *Cluster) migrateToNewHome(v *vm.VM) bool {
	var dest *host.Host
	for _, h := range c.Hosts {
		if h.ID != v.Host && h.Powered() && h.Free() >= v.FullFootprint() {
			dest = h
			break
		}
	}
	if dest == nil {
		return false
	}
	c.endPartialEpisode(v, false)
	src := c.hostByID(v.Host)
	if err := src.RemoveVM(v); err != nil {
		panic(fmt.Sprintf("cluster: newhome remove: %v", err))
	}
	v.Partial = false
	if err := dest.AddVM(v); err != nil {
		panic(fmt.Sprintf("cluster: newhome add: %v", err))
	}
	c.Stats.FullBytes += v.Alloc
	c.Stats.Ops[OpFullNewHome]++
	c.moved(EvNewHome, v, src.ID)
	// The home's memory-server image is freed once the full state has
	// been transferred; the VM keeps its original home.
	m := c.metaOf(v)
	m.uploaded = false
	m.dirtySinceUpload = 0
	return true
}

// wakeHomeAndReturnAll wakes a home host and returns every VM homed on it
// (§3.2 Default: "once a host is awake there is little benefit in leaving
// its partial VMs on the consolidation hosts"). The return executes when
// the host reaches Powered; if it is already powered it runs immediately.
func (c *Cluster) wakeHomeAndReturnAll(h *host.Host) {
	if h.Sleeping() || h.InTransit() {
		c.Stats.Ops[OpHomeWake]++
		c.event(EvWake, h.ID, 0, "for bulk return")
	}
	h.Wake(c.work[h.ID].returnAll)
}

// returnAllHome reintegrates/migrates back every VM homed on h.
func (c *Cluster) returnAllHome(h *host.Host) {
	for _, v := range c.homeVMs(h.ID) {
		if v.Host == h.ID || v.Host == vm.NoHost {
			continue
		}
		src := c.hostByID(v.Host)
		if !h.Fits(v.FullFootprint()) {
			// Cannot happen while every VM returns at its original
			// allocation, but guard against future policy interplay.
			continue
		}
		if err := src.RemoveVM(v); err != nil {
			panic(fmt.Sprintf("cluster: return remove: %v", err))
		}
		kind := EvReturnAll
		if v.Partial {
			c.endPartialEpisode(v, true)
			v.Partial = false
			kind = EvReintegrate
		} else {
			c.Stats.FullBytes += v.Alloc
			c.Stats.Ops[OpFullReturn]++
		}
		if err := h.AddVM(v); err != nil {
			panic(fmt.Sprintf("cluster: return add: %v", err))
		}
		c.moved(kind, v, src.ID)
	}
}

// exchangeIdleFulls performs the FulltoPartial exchange for consolidated
// full VMs that went idle this interval: wake the home, migrate the VM
// home in full, partially migrate it back to the same consolidation host,
// and let the home sleep again (§3.2).
func (c *Cluster) exchangeIdleFulls(wentIdle []*vm.VM) {
	fulls := c.fulls[:0]
	for _, v := range wentIdle {
		if !v.Partial && v.Consolidated() && v.Home != v.Host {
			fulls = append(fulls, v)
		}
	}
	c.fulls = fulls
	// One batch per home, homes in host-ID order: the order homes wake
	// in can decide who gets the freed consolidation capacity.
	slices.SortStableFunc(fulls, func(a, b *vm.VM) int { return cmp.Compare(a.Home, b.Home) })
	for len(fulls) > 0 {
		n := 1
		for n < len(fulls) && fulls[n].Home == fulls[0].Home {
			n++
		}
		h := c.hostByID(fulls[0].Home)
		w := &c.work[h.ID]
		w.exchanges.push(c.Sim.Now(), fulls[:n])
		fulls = fulls[n:]
		wasAsleep := h.Sleeping() || h.InTransit()
		if wasAsleep {
			c.Stats.Ops[OpHomeWakeExchange]++
			c.event(EvWake, h.ID, 0, "for exchange")
		}
		h.Wake(w.exchange)
	}
}

// exchange runs one exchange batch once its home h is powered.
func (c *Cluster) exchange(h *host.Host, vs []*vm.VM) {
	h.SetMemServer(false)
	var busy time.Duration
	for _, v := range vs {
		if v.Active || v.Partial || !v.Consolidated() {
			continue // state changed while the home resumed
		}
		if d, ok := c.exchangeOne(h, v); ok {
			busy += d
		}
	}
	// The home returns to sleep once the exchange completes, unless it
	// picked up VMs meanwhile.
	if h.NumVMs() == 0 {
		c.Sim.After(busy, "exchange-sleep", c.work[h.ID].sleepIfEmpty)
	}
}

// exchangeOne swaps one idle full VM on a consolidation host for a partial
// VM, reporting the home-host busy time it cost.
func (c *Cluster) exchangeOne(home *host.Host, v *vm.VM) (time.Duration, bool) {
	cons := c.hostByID(v.Host)
	if !home.Fits(v.FullFootprint()) {
		return 0, false
	}
	// Full migration home.
	if err := cons.RemoveVM(v); err != nil {
		panic(fmt.Sprintf("cluster: exchange remove: %v", err))
	}
	if err := home.AddVM(v); err != nil {
		panic(fmt.Sprintf("cluster: exchange add home: %v", err))
	}
	fullOp := c.Cfg.Model.FullMigration(v.Alloc, false)
	c.Stats.FullBytes += fullOp.NetBytes
	c.Stats.Ops[OpFullExchange]++
	c.moved(EvExchange, v, cons.ID)

	// Partial migration back to the same consolidation host.
	d, ok := c.partialMigrate(v, cons)
	if !ok {
		// No room to go back (working set grew, or the freed space was
		// claimed); the VM stays home as a full idle VM and the regular
		// planner deals with it next interval.
		return fullOp.Latency, true
	}
	c.moved(EvExchange, v, home.ID)
	return fullOp.Latency + d, true
}

// partialMigrate consolidates an idle VM from its current host to dest as
// a partial VM: upload the memory image (differential when the memory
// server already holds one) and push the descriptor. Returns the
// operation latency, or false if dest lacks room.
func (c *Cluster) partialMigrate(v *vm.VM, dest *host.Host) (time.Duration, bool) {
	if !dest.Powered() || !dest.Fits(vm.ChunkRound(v.WorkingSet)) {
		return 0, false
	}
	src := c.hostByID(v.Host)
	m := c.metaOf(v)
	upload := v.Alloc
	first := !m.uploaded
	if m.uploaded {
		upload = m.dirtySinceUpload
	}
	op := c.Cfg.Model.PartialMigration(upload, c.descSize(v), first)
	c.Stats.DescriptorBytes += op.NetBytes
	c.Stats.SASBytes += op.SASBytes
	if first {
		c.Stats.Ops[OpPartialFirst]++
	} else {
		c.Stats.Ops[OpPartialDiff]++
	}
	if err := src.RemoveVM(v); err != nil {
		panic(fmt.Sprintf("cluster: partial remove: %v", err))
	}
	v.Partial = true
	if err := dest.AddVM(v); err != nil {
		panic(fmt.Sprintf("cluster: partial add: %v", err))
	}
	m.uploaded = true
	m.dirtySinceUpload = 0
	m.consDirty = 0
	m.consolidatedAt = c.Sim.Now()
	return op.Latency, true
}

// descSize returns the modelled descriptor wire size for a VM (§4.4.3:
// ~16 MiB for a 4 GiB guest).
func (c *Cluster) descSize(v *vm.VM) units.Bytes {
	return units.Bytes(float64(4*units.MiB) * v.Alloc.GiBf())
}

// relieveExhausted finds consolidation hosts pushed past capacity by
// working-set growth and relieves each by returning one partial VM's home
// worth of VMs (§3.2).
func (c *Cluster) relieveExhausted() {
	for _, h := range c.consHosts() {
		if !h.Exhausted() {
			continue
		}
		// Pick the partial VM with the largest footprint as the
		// "requesting" VM; residents come in ID order, so the lowest ID
		// wins a tie.
		var victim *vm.VM
		for _, v := range h.VMs() {
			if v.Partial && (victim == nil || v.Footprint() > victim.Footprint()) {
				victim = v
			}
		}
		if victim == nil {
			continue
		}
		// Growth exhaustion always takes the Default path: the grown VM
		// is idle, so NewHome's relocate-the-active-VM refinement does
		// not apply (§3.2).
		c.Stats.Exhaustions++
		c.event(EvExhaust, h.ID, victim.ID, "working-set growth")
		c.wakeHomeAndReturnAll(c.hostByID(victim.Home))
	}
}

// suspendHost suspends an empty host, switching on its memory server if
// it is a compute host (the §5.1 rule: a home host in S3 has its
// low-power memory server turned on; consolidation hosts' servers are
// never powered).
func (c *Cluster) suspendHost(h *host.Host) {
	c.event(EvSuspend, h.ID, 0, "")
	if err := h.Suspend(c.work[h.ID].slept); err != nil {
		panic(fmt.Sprintf("cluster: suspend: %v", err))
	}
}

// vacateCand is a home host planVacate considers.
type vacateCand struct {
	h      *host.Host
	demand units.Bytes
}

// planVacate searches for compute hosts whose VMs can all be moved to
// consolidation hosts, and executes those vacations (§3.1 "Where to
// migrate"): hosts are sorted by total VM memory demand ascending and
// destinations are chosen at random among consolidation hosts with
// capacity. It leaves the consolidation hosts the plan targets marked
// in c.woken.
func (c *Cluster) planVacate() {
	cands := c.vacCands[:0]
	collect := func(h *host.Host) {
		if c.Cfg.Policy == OnlyPartial && h.ActiveVMs() > 0 {
			return
		}
		if c.Cfg.MaxVacateActiveFrac > 0 &&
			float64(h.ActiveVMs()) > c.Cfg.MaxVacateActiveFrac*float64(h.NumVMs()) {
			return
		}
		cands = append(cands, vacateCand{h, h.Used()})
	}
	if c.capIdx != nil {
		// Incremental path: the change feed maintains the
		// powered-with-VMs membership; walk members in the same host-ID
		// order the scan produces.
		for id, ok := range c.capIdx.vacatable {
			if ok {
				collect(c.Hosts[id])
			}
		}
	} else {
		for _, h := range c.homeHosts() {
			if !h.Powered() || h.NumVMs() == 0 {
				continue
			}
			collect(h)
		}
	}
	slices.SortFunc(cands, func(a, b vacateCand) int {
		if a.demand != b.demand {
			if c.Cfg.VacateDescending {
				return cmp.Compare(b.demand, a.demand)
			}
			return cmp.Compare(a.demand, b.demand)
		}
		return cmp.Compare(a.h.ID, b.h.ID)
	})
	c.vacCands = cands

	// Build the full plan first, allowing sleeping consolidation hosts
	// as destinations.
	buildPlans := func(allowSleeping bool) []vacatePlan {
		// Tentative free capacity per consolidation host, counting both
		// currently powered and sleeping ones (sleeping hosts can be
		// woken to accommodate incoming VMs, §3.1; a host mid-transition
		// completes it and then serves the queued wake). No host mutates
		// while planning, so each attempt starts from the live figures.
		for _, h := range c.consHosts() {
			c.free[h.ID] = h.Free()
			c.woken[h.ID] = false
		}
		plans := c.plans[:0]
		c.assignBuf = c.assignBuf[:0]
		for _, cd := range cands {
			lo := len(c.assignBuf)
			if c.assignVMs(cd.h, allowSleeping) {
				plans = append(plans, vacatePlan{cd.h, lo, len(c.assignBuf)})
			}
		}
		c.plans = plans
		return plans
	}

	plans := buildPlans(true)

	// Energy gating (§3.1: consolidate "only when it determines that
	// doing so can save energy"): waking a consolidation host costs
	// power; executing the plan must come out ahead.
	p := c.Cfg.Profile
	saveW := p.HostPower(power.Powered, 0) - (p.SleepW + p.MemServerW)
	wakeW := p.HostPower(power.Powered, 0) - p.SleepW
	newWakes := 0
	for _, h := range c.consHosts() {
		if c.woken[h.ID] && !h.Powered() {
			newWakes++
		}
	}
	if float64(len(plans))*saveW <= float64(newWakes)*wakeW {
		// The plan is a net loss; retry against powered hosts only.
		plans = buildPlans(false)
	}

	for _, pl := range plans {
		c.executeVacate(pl.h, c.assignBuf[pl.lo:pl.hi])
	}
}

// vacatePlan is one home's plan: h's VMs go where c.assignBuf[lo:hi]
// says.
type vacatePlan struct {
	h      *host.Host
	lo, hi int
}

// assignment maps a VM to a destination host and residency mode.
type assignment struct {
	v       *vm.VM
	dest    int
	partial bool
}

// assignVMs tries to place every VM of h onto consolidation hosts against
// the attempt's tentative c.free; on success c.free and c.woken are
// updated and the plan appended to c.assignBuf, and on failure
// c.assignBuf is left as it was.
func (c *Cluster) assignVMs(h *host.Host, allowSleeping bool) bool {
	lo := len(c.assignBuf)
	plan := c.assignBuf
	ok := true
	for _, v := range h.VMs() { // ID order, for reproducibility
		partial := !v.Active && c.Cfg.Policy != FullOnly
		need := v.FullFootprint()
		if partial {
			need = vm.ChunkRound(v.WorkingSet)
		}
		var dest int
		if dest, ok = c.pickConsHost(need, allowSleeping); !ok {
			break
		}
		c.spent[dest] += need
		plan = append(plan, assignment{v: v, dest: dest, partial: partial})
	}
	for _, a := range plan[lo:] {
		if ok {
			c.free[a.dest] -= c.spent[a.dest]
			c.woken[a.dest] = true
		}
		c.spent[a.dest] = 0
	}
	if !ok {
		plan = plan[:lo]
	}
	c.assignBuf = plan
	return ok
}

// pickConsHost selects a destination among consolidation hosts whose
// tentative free capacity fits need while preserving the planning
// headroom. Powered (or already-planned-to-wake) hosts are preferred —
// a consolidation host "is awakened only to accommodate incoming VMs"
// (§3.1) — and among those the fullest fitting host wins (best fit), so
// that lightly-used consolidation hosts drain empty and can sleep instead
// of all staying powered. Random tie-breaking keeps placement spread when
// hosts are equally full.
func (c *Cluster) pickConsHost(need units.Bytes, allowSleeping bool) (int, bool) {
	c.Planner.Picks++
	poweredFits, sleepingFits := c.pickPowered[:0], c.pickSleeping[:0]
	consider := func(h *host.Host, reserve units.Bytes) {
		c.Planner.Candidates++
		if c.free[h.ID]-c.spent[h.ID]-need < reserve {
			return
		}
		if h.Powered() || c.woken[h.ID] || c.spent[h.ID] > 0 {
			poweredFits = append(poweredFits, h.ID)
		} else if allowSleeping {
			sleepingFits = append(sleepingFits, h.ID)
		}
	}
	if x := c.capIdx; x != nil {
		// The capacity index restricts the walk to buckets that can fit;
		// the decision is identical (argument at the top of capindex.go).
		for b := availBucket(need); b <= x.top; b++ {
			for _, i := range x.buckets[b] {
				consider(c.Hosts[i+x.homeN], x.reserve[i])
			}
		}
	} else {
		for _, h := range c.consHosts() {
			consider(h, units.Bytes(c.Cfg.VacateHeadroom*float64(h.Usable())))
		}
	}
	c.pickPowered, c.pickSleeping = poweredFits, sleepingFits
	fits := poweredFits
	if len(fits) == 0 {
		fits = sleepingFits
	}
	if len(fits) == 0 {
		return 0, false
	}
	cands := c.pickCands[:0]
	for _, id := range fits {
		cands = append(cands, placement.Candidate{ID: id, Free: c.free[id] - c.spent[id]})
	}
	c.pickCands = cands
	strat := c.Cfg.Placement
	if strat == nil {
		strat = placement.RandomBestK{K: 2}
	}
	return strat.Pick(cands, c.rand), true
}

// executeVacate wakes the needed consolidation hosts and schedules the
// moves of h's VMs (vacate), queuing a copy of plan for them.
func (c *Cluster) executeVacate(h *host.Host, plan []assignment) {
	// Wake any sleeping destinations first.
	needWake := false
	for _, a := range plan {
		dest := c.hostByID(a.dest)
		if !dest.Powered() && !c.waking[a.dest] {
			needWake = true
			c.waking[a.dest] = true
			c.Stats.Ops[OpConsWake]++
			c.event(EvWake, a.dest, 0, "for vacate")
			dest.Wake(nil)
		}
	}
	for _, a := range plan {
		c.waking[a.dest] = false
	}
	delay := time.Duration(0)
	if needWake {
		delay = c.Cfg.Profile.ResumeTime + time.Millisecond
	}
	w := &c.work[h.ID]
	w.vacates.push(c.Sim.Now().Add(delay), plan)
	c.Sim.After(delay, "vacate", w.vacate)
}

// vacate moves h's VMs as plan says, then schedules h's suspend after
// the serialized migration latency.
func (c *Cluster) vacate(h *host.Host, plan []assignment) {
	var busy time.Duration
	n := 0
	for _, a := range plan {
		v := a.v
		if v.Host != h.ID {
			continue // moved by an intervening event
		}
		dest := c.hostByID(a.dest)
		if a.partial && !v.Active {
			if d, ok := c.partialMigrate(v, dest); ok {
				c.moved(EvVacate, v, h.ID)
				busy += d
				n++
			}
			continue
		}
		// Full migration (active VM, or FullOnly policy).
		if !dest.Powered() || !dest.Fits(v.FullFootprint()) {
			continue
		}
		if err := h.RemoveVM(v); err != nil {
			panic(fmt.Sprintf("cluster: vacate remove: %v", err))
		}
		if err := dest.AddVM(v); err != nil {
			panic(fmt.Sprintf("cluster: vacate add: %v", err))
		}
		c.moved(EvVacate, v, h.ID)
		op := c.Cfg.Model.FullMigration(v.Alloc, v.Active)
		c.Stats.FullBytes += op.NetBytes
		c.Stats.Ops[OpFullVacate]++
		// Full migration frees any memory-server image at the source
		// (§4.2).
		m := c.metaOf(v)
		m.uploaded = false
		m.dirtySinceUpload = 0
		busy += op.Latency
		n++
	}
	if n == 0 {
		return
	}
	c.Sim.After(busy, "vacate-sleep", c.work[h.ID].sleepIfEmpty)
}

// PoweredHosts counts hosts currently powered or in transit — the
// "fully powered hosts" series of Figure 7 counts a transitioning host as
// drawing full power, which it does.
func (c *Cluster) PoweredHosts() int {
	n := 0
	for _, h := range c.Hosts {
		if !h.Sleeping() {
			n++
		}
	}
	return n
}

// ActiveVMs counts currently active VMs.
func (c *Cluster) ActiveVMs() int { return c.nActive }

// FlushEpisodes closes out the on-demand accounting of partial episodes
// still open at the end of a run.
func (c *Cluster) FlushEpisodes() {
	for _, v := range c.VMs {
		if v.Partial {
			m := c.metaOf(v)
			dur := c.Sim.Now().Sub(m.consolidatedAt)
			c.Stats.OnDemandBytes += c.Cfg.Model.OnDemandFetch(classRate(v.Class), v.WorkingSet, dur)
			m.consolidatedAt = c.Sim.Now()
		}
	}
}

// TotalEnergyJoules sums host and memory-server energy through now.
func (c *Cluster) TotalEnergyJoules() float64 {
	var total float64
	for _, h := range c.Hosts {
		total += h.Meter().TotalJoules(c.Sim.Now())
	}
	return total
}

// HomeHostEnergyJoules sums the energy of home hosts only (with their
// memory servers), matching the paper's savings normalisation.
func (c *Cluster) HomeHostEnergyJoules() float64 {
	var total float64
	for _, h := range c.homeHosts() {
		total += h.Meter().TotalJoules(c.Sim.Now())
	}
	return total
}
