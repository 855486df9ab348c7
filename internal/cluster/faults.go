package cluster

import (
	"oasis/internal/host"
	"oasis/internal/rng"
	"oasis/internal/simtime"
)

// Fault injection at the cluster-model level: memory-server outages and
// the §4.4.4 degradation ladder's last rung, forced promotion. The
// functional layer (internal/memserver, internal/memtap, internal/agent)
// implements the real mechanics — retries, circuit breaker, degraded
// reporting, dirty-push promotion over TCP; this file models the same
// ladder at cluster scale so the simulator can report availability under
// injected memory-server failures.
//
// When a sleeping home's memory server dies, every partial VM homed
// there is stranded: its memtap burns its retries, the breaker opens and
// the VM reports degraded. The manager's response reuses the machinery
// it already has — wake the home and return all of its VMs. The return
// is a plain reintegration: the dirty pages live in consolidation-host
// DRAM and the home retains the full image in self-refresh, so the
// promotion needs nothing from the failed memory server and loses no
// state. What IS lost is the server's uploaded image: the next
// consolidation of any VM homed there must re-upload in full.

// injectMemServerOutages rolls, per serving memory server per tick, for
// an outage (probability PlanEvery/MemServerMTBF), and walks the
// degradation ladder for the partial VMs it strands. Called from Tick;
// a no-op unless Cfg.MemServerMTBF > 0, and it draws from a dedicated
// fault RNG so enabling outages does not perturb the placement and
// working-set sequences of a same-seed fault-free run.
func (c *Cluster) injectMemServerOutages() {
	if c.Cfg.MemServerMTBF <= 0 {
		return
	}
	p := c.Cfg.PlanEvery.Seconds() / c.Cfg.MemServerMTBF.Seconds()
	if p > 1 {
		p = 1
	}
	for _, h := range c.homeHosts() {
		// Only a serving memory server can fail in a way anyone notices:
		// it is on exactly while its host sleeps with VMs away.
		if !h.MemServerOn() || !c.faultRand.Bool(p) {
			continue
		}
		c.failMemServer(h)
	}
}

// injectCorrelatedOutage fires the Config.OutageAt/OutageFrac burst: the
// first tick at or after OutageAt fails OutageFrac of the serving
// memory servers in one stroke. Selection hashes (Seed, host ID) into
// [0,1) — no RNG stream is consumed and no iteration-order dependence
// exists, so the burst neither perturbs a same-seed run's placement
// sequence nor varies across runs.
func (c *Cluster) injectCorrelatedOutage() {
	if c.Cfg.OutageFrac <= 0 || c.Cfg.OutageAt <= 0 || c.outageFired {
		return
	}
	if c.Sim.Now() < simtime.Time(c.Cfg.OutageAt) {
		return
	}
	c.outageFired = true
	for _, h := range c.homeHosts() {
		if !h.MemServerOn() {
			continue
		}
		roll := float64(rng.Mix64(c.Cfg.Seed^0xc0a1, uint64(h.ID))>>11) / (1 << 53)
		if roll >= c.Cfg.OutageFrac {
			continue
		}
		c.failMemServer(h)
	}
}

// failMemServer kills one serving memory server and walks the §4.4.4
// degradation ladder for everything it stranded.
func (c *Cluster) failMemServer(h *host.Host) {
	c.Stats.MemServerOutages++
	c.event(EvMemServerFail, h.ID, 0, "")

	// Every partial VM homed here is stranded. Account the degrade
	// and the recovery latency each will experience (a reintegration
	// off the consolidation host's DRAM; the failed server plays no
	// part in it).
	stranded := 0
	for _, v := range c.homeVMs(h.ID) {
		if !v.Partial {
			continue
		}
		stranded++
		c.Stats.DegradedVMs++
		op := c.Cfg.Model.Reintegration(c.reintegrateDirty(c.metaOf(v)))
		c.Stats.OutageRecovery.Add(op.Latency.Seconds())
		c.event(EvForcePromote, v.Host, v.ID, "memory server lost")
	}
	if stranded > 0 {
		c.Stats.ForcedPromotions += int64(stranded)
		// The ladder's last rung reuses the manager's bulk-return
		// machinery: wake the home, reintegrate everything it owns.
		c.wakeHomeAndReturnAll(h)
	}
	// The server's images died with it: invalidate the differential
	// upload state of every VM homed here.
	for _, v := range c.homeVMs(h.ID) {
		m := c.metaOf(v)
		m.uploaded = false
		m.dirtySinceUpload = 0
	}
}
