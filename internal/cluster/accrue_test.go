package cluster

import (
	"testing"
	"time"

	"oasis/internal/simtime"
	"oasis/internal/trace"
	"oasis/internal/units"
)

// accrueEager is the accrual the manager ran before a VM's dirty
// counters were settled lazily: at the start of every tick, each VM's
// counters advance one interval at its current rates and are clamped.
// It marks them settled through the tick it precedes, so on a cluster
// it runs before every Tick metaOf never settles anything and the
// counters are exactly the eager manager's.
func accrueEager(c *Cluster) {
	hours := c.Cfg.PlanEvery.Hours()
	for i, v := range c.VMs {
		m := &c.meta[i]
		m.settled = c.ticks + 1
		if v.Partial {
			m.consDirty += units.Bytes(float64(c.Cfg.ConsDirtyPerHour) * hours)
			if m.consDirty > c.Cfg.ReintegrateDirtyCap {
				m.consDirty = c.Cfg.ReintegrateDirtyCap
			}
			continue
		}
		if m.uploaded {
			rate := c.Cfg.IdleDirtyPerHour
			if v.Active {
				rate = c.Cfg.ActiveDirtyPerHour
			}
			m.dirtySinceUpload += units.Bytes(float64(rate) * hours)
			if m.dirtySinceUpload > v.Alloc {
				m.dirtySinceUpload = v.Alloc
			}
		}
	}
}

// TestLazyAccrualMatchesEager runs a seeded day per policy, with
// memory-server outages on (they read and reset the counters), on two
// clusters: one settling its counters lazily, one accrued eagerly by
// accrueEager. After every tick, and again after the events between
// ticks, every VM's settled counters must equal the eager ones. Each
// check settles a copy and puts the unsettled state back, so the lazy
// cluster keeps the settle pattern it has in a real run: a VM may owe
// many ticks when it is next read. Removing the settle in setActive
// fails this test: a flip then bills the ticks owed before it at the
// new activity's rate.
func TestLazyAccrualMatchesEager(t *testing.T) {
	for _, p := range []Policy{OnlyPartial, Default, FulltoPartial, NewHome, FullOnly} {
		cfg := DefaultConfig()
		cfg.Policy, cfg.Seed, cfg.NoTelemetry = p, 42, true
		cfg.MemServerMTBF = 3 * time.Hour
		cfg.OutageAt, cfg.OutageFrac = 14*time.Hour, 0.5
		var lazy, eager *Cluster
		var clocks [2]*simtime.Simulator
		for k, c := range []**Cluster{&lazy, &eager} {
			clocks[k] = simtime.New()
			var err error
			if *c, err = New(clocks[k], cfg); err != nil {
				t.Fatal(err)
			}
		}
		days := make([]trace.UserDay, len(lazy.VMs))
		for i := range days {
			days[i] = trace.UserDayAt(7, uint64(i), trace.Weekday)
		}
		check := func(iv int, when string) {
			t.Helper()
			for i, v := range lazy.VMs {
				unsettled := lazy.meta[i]
				got, want := *lazy.metaOf(v), eager.meta[i]
				lazy.meta[i] = unsettled
				got.settled, want.settled = 0, 0
				if got != want {
					t.Fatalf("%v interval %d %s: vm%04d (%v) settles to %+v, eager accrual gives %+v",
						p, iv, when, v.ID, v, got, want)
				}
			}
		}
		row := make([]bool, len(lazy.VMs))
		for iv := 0; iv < trace.IntervalsPerDay; iv++ {
			for i := range row {
				row[i] = days[i].Active[iv]
			}
			accrueEager(eager)
			for _, c := range []*Cluster{lazy, eager} {
				if err := c.Tick(row); err != nil {
					t.Fatal(err)
				}
			}
			check(iv, "after the tick")
			for _, s := range clocks {
				s.RunUntil(s.Now().Add(cfg.PlanEvery))
			}
			check(iv, "after the events")
		}
		// FullOnly uploads nothing, so its counters stay zero.
		if p != FullOnly && (lazy.Stats.MemServerOutages == 0 || lazy.Stats.Ops["reintegrate"] == 0) {
			t.Fatalf("%v: the day had %d outages and %d reintegrations; it exercised too little",
				p, lazy.Stats.MemServerOutages, lazy.Stats.Ops["reintegrate"])
		}
		a, b := lazy.Digest(), eager.Digest()
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%v: lazy digest %#x, eager %#x", p, a.Fingerprint(), b.Fingerprint())
		}
	}
}
