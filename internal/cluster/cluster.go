// Package cluster implements the Oasis cluster manager — the paper's core
// contribution (§3): hybrid server consolidation that combines full VM
// migration (to free hosts of active VMs) with partial VM migration (to
// densely pack the working sets of idle VMs), per-host low-power memory
// servers that let sleeping homes keep serving pages, and the
// consolidation policies OnlyPartial, Default, FulltoPartial and NewHome,
// plus a FullOnly baseline representing prior live-migration-based
// consolidation systems.
package cluster

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"oasis/internal/host"
	"oasis/internal/migration"
	"oasis/internal/pagestore"
	"oasis/internal/placement"
	"oasis/internal/power"
	"oasis/internal/rng"
	"oasis/internal/simtime"
	"oasis/internal/units"
	"oasis/internal/vm"
	"oasis/internal/workload"
)

// Policy selects how the manager reacts to consolidated VM state changes
// (§3.2).
type Policy int

// Policies. OnlyPartial and FullOnly are the single-mechanism baselines;
// Default, FulltoPartial and NewHome are the paper's §3.2 policies.
const (
	// OnlyPartial consolidates exclusively with partial migration: a home
	// host is vacated only when every VM on it is idle, and any VM
	// activation wakes the home and returns all of its VMs (the Jettison
	// behaviour).
	OnlyPartial Policy = iota
	// Default combines full and partial migration; consolidated VMs stay
	// on the consolidation host until capacity is exhausted, at which
	// point the requesting VM's home is woken and all its VMs return.
	Default
	// FulltoPartial refines Default: a full VM that becomes idle on a
	// consolidation host is exchanged for a partial VM (migrated home,
	// then partially migrated back), freeing consolidation memory.
	FulltoPartial
	// NewHome refines FulltoPartial: a partial VM that becomes active and
	// exhausts its host migrates to any powered host with room before
	// falling back to the Default wake-the-home behaviour.
	NewHome
	// FullOnly is the prior-work baseline [5,15,22,28]: consolidation
	// uses live full migration only, so every consolidated VM occupies
	// its whole allocation.
	FullOnly
)

// String renders the policy name as used in the paper's figures.
func (p Policy) String() string {
	switch p {
	case OnlyPartial:
		return "OnlyPartial"
	case Default:
		return "Default"
	case FulltoPartial:
		return "FulltoPartial"
	case NewHome:
		return "NewHome"
	case FullOnly:
		return "FullOnly"
	default:
		return "unknown"
	}
}

// Config sizes a cluster and sets policy and calibration.
type Config struct {
	Policy Policy

	// HomeHosts and ConsHosts count compute and consolidation hosts
	// (§5.1: 30 home hosts, 2-12 consolidation hosts in a 42U rack).
	HomeHosts int
	ConsHosts int
	// VMsPerHost is the number of VMs created on each home host (30).
	VMsPerHost int

	// VMAlloc is each VM's memory allocation (4 GiB).
	VMAlloc units.Bytes

	// ClassMix assigns workload classes to VMs round-robin; empty means
	// all desktops (the §5 VDI farm). §5.6 argues other server workloads
	// behave at least as well because idle web/db VMs touch less memory
	// than idle desktops; a mixed cluster exercises that claim.
	ClassMix []vm.Class
	// HostCap and HostReserved size host RAM (128 GiB, 4 GiB for dom0).
	HostCap      units.Bytes
	HostReserved units.Bytes

	Profile power.Profile
	Model   migration.Model

	// Seed drives all stochastic choices (working sets, placement).
	Seed uint64

	// WSGrowthPerHour is how fast a consolidated partial VM's working set
	// creeps up, eventually exhausting consolidation hosts (§3.2).
	WSGrowthPerHour units.Bytes

	// ActiveDirtyPerHour and IdleDirtyPerHour model how fast a full VM
	// dirties memory relative to its last memory-server upload,
	// determining the differential upload size on re-consolidation.
	ActiveDirtyPerHour units.Bytes
	IdleDirtyPerHour   units.Bytes

	// ConsDirtyPerHour models how fast an idle partial VM dirties pages
	// on the consolidation host (background daemons); this is the state
	// reintegration must push back (§4.4.3 measured 175.3 MiB after a
	// 20-minute stay).
	ConsDirtyPerHour units.Bytes
	// ReintegrateDirtyFloor is the minimum dirty state a reintegration
	// pushes.
	ReintegrateDirtyFloor units.Bytes
	// ReintegrateDirtyCap bounds it.
	ReintegrateDirtyCap units.Bytes

	// VacateHeadroom is the fraction of a consolidation host's usable
	// memory the vacate planner leaves unallocated, so that partial VMs
	// activating later can convert in place without immediately
	// exhausting the host and triggering a wake-the-home return.
	VacateHeadroom float64

	// Placement selects the destination among fitting consolidation
	// hosts. Nil defaults to placement.RandomBestK{K: 2}: best-fit
	// packing (so lightly used hosts drain and sleep) with random
	// tie-spreading. placement.Random{} is the paper's literal §3.1
	// behaviour; see the placement ablation for the comparison.
	Placement placement.Strategy

	// VacateDescending reverses the §3.1 vacate ordering (ablation): the
	// paper sorts compute hosts by total VM memory demand ascending so
	// the cheapest hosts vacate first; descending vacates the most
	// expensive first.
	VacateDescending bool

	// MaxVacateActiveFrac is the §3.1 energy-saving determination for a
	// single host: a home whose resident VMs are more active than this
	// fraction is not worth vacating — its consolidated VMs would
	// convert, exhaust the consolidation host and bounce straight back,
	// burning migration time and host wakes for no sleep. Activity-heavy
	// hosts stay powered; the planner revisits them next interval.
	MaxVacateActiveFrac float64

	// PlanEvery is the manager's consolidation interval (§3.1: a
	// configurable parameter; the evaluation uses the 5-minute trace
	// interval).
	PlanEvery time.Duration

	// ActivationSpread is the window after an interval boundary within
	// which that interval's user activations actually land; it controls
	// how hard resume storms collide on consolidation-host NICs.
	ActivationSpread time.Duration

	// EventLogSize bounds the manager's decision log (Events), one event
	// per committed action; zero disables logging.
	EventLogSize int

	// MemServerMTBF enables memory-server fault injection: the mean time
	// between failures of each *serving* memory server (one on a
	// sleeping home with VMs away). Zero disables injection. Outages
	// strand the home's partial VMs (degraded, §4.4.4) and trigger
	// forced promotion back home; see faults.go. Failures draw from a
	// dedicated RNG, so enabling them does not perturb the placement
	// decisions of a same-seed fault-free run.
	MemServerMTBF time.Duration

	// OutageAt and OutageFrac inject one correlated failure burst (a rack
	// PDU trip, a bad firmware push): at the first tick at or after
	// OutageAt, OutageFrac of the currently *serving* memory servers fail
	// simultaneously. Selection hashes (Seed, host ID), so it is
	// deterministic and independent of host iteration order. Zero either
	// field to disable. Independent random outages (MemServerMTBF) may be
	// layered on top.
	OutageAt   time.Duration
	OutageFrac float64

	// WorkingSetScale multiplies every sampled idle working set
	// (initial placement and per-episode resamples). 0 or 1 keeps the
	// paper's Jettison distribution bit-identically; the
	// heterogeneous-memory-tier ablation uses >1 to model consolidation
	// backed by a slower, larger tier that must hold more resident state.
	WorkingSetScale float64

	// NoTelemetry disables the per-Tick oasis_sim_* gauge mirror. The
	// parallel fleet simulator sets it for worker cells: hundreds of
	// concurrent clusters publishing to the same process-global gauges
	// would fight over last-write-wins values that describe no cluster
	// in particular; the fleet layer publishes merged aggregates
	// instead. Publishing is observation-only either way — results are
	// bit-identical with telemetry on or off.
	NoTelemetry bool
}

// DefaultConfig returns the §5.1 simulation configuration.
func DefaultConfig() Config {
	return Config{
		Policy:                FulltoPartial,
		HomeHosts:             30,
		ConsHosts:             4,
		VMsPerHost:            30,
		VMAlloc:               4 * units.GiB,
		HostCap:               128 * units.GiB,
		HostReserved:          4 * units.GiB,
		Profile:               power.DefaultProfile(),
		Model:                 migration.ClusterModel(),
		Seed:                  1,
		WSGrowthPerHour:       8 * units.MiB,
		ActiveDirtyPerHour:    1700 * units.MiB,
		IdleDirtyPerHour:      75 * units.MiB,
		ConsDirtyPerHour:      260 * units.MiB,
		ReintegrateDirtyFloor: 20 * units.MiB,
		// Dirty state is bounded: idle background activity rewrites the
		// same working-set pages, so long stays do not dirty unboundedly
		// (the paper measured 175.3 MiB after a 20-minute stay).
		ReintegrateDirtyCap: 256 * units.MiB,
		VacateHeadroom:      0.15,
		MaxVacateActiveFrac: 0.30,
		PlanEvery:           5 * time.Minute,
		ActivationSpread:    5 * time.Minute,
	}
}

// vmMeta is the manager's per-VM bookkeeping beyond the vm.VM state.
type vmMeta struct {
	// uploaded reports whether the home's memory server holds an image,
	// enabling differential upload on the next consolidation.
	uploaded bool
	// settled is the tick through which both dirty counters have
	// accrued (beside uploaded, it keeps vmMeta at 32 bytes).
	settled int32
	// dirtySinceUpload is the volume dirtied since the last upload.
	dirtySinceUpload units.Bytes
	// consolidatedAt is when the current partial episode began.
	consolidatedAt simtime.Time
	// consDirty is the dirty state accumulated on the consolidation host
	// during the current partial episode.
	consDirty units.Bytes
}

// Cluster is the manager plus all managed state.
type Cluster struct {
	Cfg   Config
	Sim   *simtime.Simulator
	Hosts []*host.Host
	VMs   []*vm.VM

	rand *rng.Rand
	// faultRand drives memory-server outage injection separately from
	// rand, keeping fault-free runs bit-identical across MTBF settings.
	faultRand *rng.Rand
	// meta is indexed by the VM's position in VMs (see metaOf).
	meta []vmMeta
	// ticks counts Ticks: the accrual steps every VM's counters are owed.
	ticks int32
	// prev is the activity row of the last Tick (each VM's Active bit),
	// so a Tick visits only the VMs whose bit changed; nActive counts
	// its true bits.
	prev    []bool
	nActive int

	// busyUntil tracks, by home host ID, when its NIC finishes the
	// reintegration transfers already in flight (in absolute sim
	// seconds). Simultaneous activations of VMs of the same home
	// serialize on that home's link; transfers to different homes
	// proceed in parallel across the rack switch. This models the
	// resume-storm queueing of Figure 11.
	busyUntil []float64
	// pendingDelays holds this tick's partial-VM transition delays until
	// flushDelays resolves them in arrival order.
	pendingDelays []delayReq

	// events is the bounded decision log (see Events); logged counts
	// every event ever recorded.
	events []Event
	logged int

	// outageFired latches the one-shot correlated outage burst
	// (Config.OutageAt) once it has happened.
	outageFired bool

	// tel mirrors Stats into live oasis_sim_* gauges every Tick; see
	// telemetry.go. Lazily created so zero-value-ish test clusters work.
	tel *simTel

	// capIdx is the live free-capacity index the incremental planner
	// reads (capindex.go). With it nil every pick walks all consolidation
	// hosts and planVacate all home hosts, with bit-identical decisions:
	// the planner-equivalence test clears it to get its oracle.
	capIdx *capIndex
	// pickPowered, pickSleeping and pickCands are pickConsHost's scratch
	// buffers, retained across picks so the planner's hot path does not
	// allocate.
	pickPowered, pickSleeping []int
	pickCands                 []placement.Candidate
	// The planner's working state by host ID, retained likewise: each
	// consolidation host's tentative free capacity within one buildPlans
	// attempt; what the home being assigned has spent of it (zero between
	// assignVMs calls); the hosts the attempt's plans land on (after
	// planVacate, this tick's targets); and those one executeVacate has
	// already sent a wake (false between calls).
	free, spent   []units.Bytes
	woken, waking []bool
	// planVacate's candidates and plans, every plan of one buildPlans
	// attempt end to end, Tick's list, and exchangeIdleFulls' batches.
	vacCands  []vacateCand
	plans     []vacatePlan
	assignBuf []assignment
	wentIdle  []*vm.VM
	fulls     []*vm.VM

	// work is each host's deferred work and the callbacks that run it,
	// by host ID (see hostWork).
	work []hostWork

	// Planner counts planning work (picks, candidates examined). Not
	// part of Stats/digest: scan and indexed planners must fingerprint
	// identically while doing measurably different amounts of work.
	Planner PlannerStats

	Stats Stats
}

// delayReq is one queued transition-delay computation.
type delayReq struct {
	home     int
	instant  float64
	latency  float64
	transfer float64
}

// New builds a cluster: HomeHosts compute hosts each populated with
// VMsPerHost desktop VMs, plus ConsHosts consolidation hosts, all powered.
// Consolidation hosts are put to sleep by the first planning pass (they
// sleep by default, §3.1).
func New(sim *simtime.Simulator, cfg Config) (*Cluster, error) {
	if cfg.HomeHosts <= 0 || cfg.ConsHosts < 0 || cfg.VMsPerHost <= 0 {
		return nil, fmt.Errorf("cluster: invalid sizing %d+%d hosts, %d VMs/host",
			cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost)
	}
	if cfg.VMAlloc*units.Bytes(cfg.VMsPerHost) > cfg.HostCap-cfg.HostReserved {
		return nil, fmt.Errorf("cluster: %d VMs of %v exceed host capacity %v",
			cfg.VMsPerHost, cfg.VMAlloc, cfg.HostCap-cfg.HostReserved)
	}
	c := &Cluster{
		Cfg:       cfg,
		Sim:       sim,
		rand:      rng.New(cfg.Seed),
		faultRand: rng.New(cfg.Seed ^ 0xfa177),
	}

	total := cfg.HomeHosts + cfg.ConsHosts
	c.meta = make([]vmMeta, cfg.HomeHosts*cfg.VMsPerHost)
	c.prev = make([]bool, len(c.meta))
	c.busyUntil = make([]float64, total)
	c.free, c.spent = make([]units.Bytes, total), make([]units.Bytes, total)
	c.woken, c.waking = make([]bool, total), make([]bool, total)
	for i := 0; i < total; i++ {
		role := host.Compute
		name := fmt.Sprintf("home-%02d", i)
		if i >= cfg.HomeHosts {
			role = host.Consolidation
			name = fmt.Sprintf("cons-%02d", i-cfg.HomeHosts)
		}
		c.Hosts = append(c.Hosts, host.New(sim, host.Config{
			ID:       i,
			Name:     name,
			Role:     role,
			Cap:      cfg.HostCap,
			Reserved: cfg.HostReserved,
			Profile:  cfg.Profile,
			// A home's VMs are placed on it below; a consolidation host
			// starts with as much room.
			Residents: cfg.VMsPerHost,
		}))
	}

	// The VMs live in one array as long as the cluster does.
	vms := make([]vm.VM, len(c.meta))
	names := vmNames(len(vms))
	c.VMs = make([]*vm.VM, 0, len(vms))
	id := firstVMID
	nth := 0
	for hi := 0; hi < cfg.HomeHosts; hi++ {
		for j := 0; j < cfg.VMsPerHost; j++ {
			class := vm.Desktop
			if len(cfg.ClassMix) > 0 {
				class = cfg.ClassMix[nth%len(cfg.ClassMix)]
			}
			v := &vms[nth]
			*v = vm.VM{
				ID:         id,
				Name:       names[nth],
				Class:      class,
				Alloc:      cfg.VMAlloc,
				VCPUs:      1,
				Home:       hi,
				WorkingSet: c.sampleWS(class),
			}
			nth++
			id++
			if err := c.Hosts[hi].AddVM(v); err != nil {
				return nil, fmt.Errorf("cluster: initial placement: %w", err)
			}
			c.VMs = append(c.VMs, v)
		}
	}

	c.work = make([]hostWork, total)
	for id := range c.Hosts {
		c.bindWork(id)
	}

	// Consolidation hosts sleep by default; they are woken on demand.
	for _, h := range c.Hosts[cfg.HomeHosts:] {
		if err := h.Suspend(nil); err != nil {
			return nil, err
		}
	}
	sim.RunUntil(sim.Now().Add(cfg.Profile.SuspendTime))

	// Build the planner's capacity index from the settled initial state;
	// from here on the host change feed keeps it current.
	c.capIdx = newCapIndex(c)
	return c, nil
}

// hostWork is one host's deferred work: the batches and plans its
// callbacks will run, and those callbacks, bound once in New so that
// scheduling one allocates nothing (DESIGN.md §15 "Dense cell state").
type hostWork struct {
	// exchanges holds the exchange batches waiting for this home to be
	// powered, one per exchange callback queued on Host.Wake, which runs
	// them in the order they were queued; vacates holds the plans
	// waiting for this home's vacate timers, in firing order.
	exchanges batchQueue[*vm.VM]
	vacates   batchQueue[assignment]

	// exchange and vacate each run the oldest batch or plan queued;
	// returnAll brings every VM homed here back; sleepIfEmpty suspends
	// the host if it is powered and empty; slept switches a compute
	// host's memory server on once it reaches S3 (nil for a
	// consolidation host, whose server is never powered, §5.1).
	exchange, vacate, returnAll, sleepIfEmpty, slept func()
}

// bindWork binds the callbacks of host id (see hostWork). Each looks the
// host up when it runs.
func (c *Cluster) bindWork(id int) {
	w := &c.work[id]
	w.exchange = func() { c.exchange(c.Hosts[id], w.exchanges.pop()) }
	w.vacate = func() { c.vacate(c.Hosts[id], w.vacates.pop()) }
	w.returnAll = func() {
		h := c.Hosts[id]
		h.SetMemServer(false)
		c.returnAllHome(h)
	}
	w.sleepIfEmpty = func() {
		if h := c.Hosts[id]; h.Powered() && h.NumVMs() == 0 {
			c.suspendHost(h)
		}
	}
	if c.Hosts[id].Role == host.Compute {
		w.slept = func() { c.Hosts[id].SetMemServer(true) }
	}
}

// batchQueue holds one host's deferred batches in a buffer that is
// reused once every batch has been popped. Batches pop in order of due,
// ties in push order: the order in which the simulator fires the
// callbacks that pop them. A popped batch stays valid until the next
// push.
type batchQueue[T any] struct {
	items []T
	spans []batchSpan // from head on, the batches not yet popped
	head  int
}

// batchSpan is one batch: items[lo:hi], due at its instant.
type batchSpan struct {
	due    simtime.Time
	lo, hi int
}

// push queues a copy of b, due at the given instant.
func (q *batchQueue[T]) push(due simtime.Time, b []T) {
	if q.head == len(q.spans) {
		q.items, q.spans, q.head = q.items[:0], q.spans[:0], 0
	}
	sp := batchSpan{due, len(q.items), len(q.items) + len(b)}
	q.items = append(q.items, b...)
	i := len(q.spans)
	for i > q.head && q.spans[i-1].due > due {
		i--
	}
	q.spans = slices.Insert(q.spans, i, sp)
}

// pop removes and returns the first batch.
func (q *batchQueue[T]) pop() []T {
	sp := q.spans[q.head]
	q.head++
	return q.items[sp.lo:sp.hi]
}

// sampleWS draws an idle working set for a VM of the given class,
// applying the configured ablation scale (see Config.WorkingSetScale).
func (c *Cluster) sampleWS(class vm.Class) units.Bytes {
	ws := workload.SampleWorkingSetFor(c.rand, class)
	if s := c.Cfg.WorkingSetScale; s > 0 && s != 1 {
		ws = units.Bytes(float64(ws) * s)
		if ws < 16*units.MiB {
			ws = 16 * units.MiB
		}
		if ws > c.Cfg.VMAlloc {
			ws = c.Cfg.VMAlloc
		}
	}
	return ws
}

// homeHosts returns the compute hosts.
func (c *Cluster) homeHosts() []*host.Host { return c.Hosts[:c.Cfg.HomeHosts] }

// consHosts returns the consolidation hosts.
func (c *Cluster) consHosts() []*host.Host { return c.Hosts[c.Cfg.HomeHosts:] }

// firstVMID is the ID of VMs[0]; IDs ascend by one from there.
const firstVMID pagestore.VMID = 1000

// vmNames returns the names of n VMs from firstVMID on, "vdi-%04d" each
// (every ID has four digits or more), cut from one string.
func vmNames(n int) []string {
	buf := make([]byte, 0, 9*n)
	ends := make([]int, n)
	for i := range ends {
		buf = strconv.AppendInt(append(buf, "vdi-"...), int64(firstVMID)+int64(i), 10)
		ends[i] = len(buf)
	}
	all, names, lo := string(buf), make([]string, n), 0
	for i, hi := range ends {
		names[i], lo = all[lo:hi], hi
	}
	return names
}

// metaOf returns the manager's bookkeeping for v, meta at v's position,
// with its dirty counters settled through the current tick. Every read
// or write of them and every change of Partial, Active or uploaded
// goes through it, so the per-tick steps owed since the last settle
// were all at today's rates (DESIGN.md §15 "Dense cell state").
func (c *Cluster) metaOf(v *vm.VM) *vmMeta {
	m := &c.meta[v.ID-firstVMID]
	n := units.Bytes(c.ticks - m.settled)
	if n == 0 {
		return m
	}
	m.settled = c.ticks
	hours := c.Cfg.PlanEvery.Hours()
	switch {
	case v.Partial:
		step := units.Bytes(float64(c.Cfg.ConsDirtyPerHour) * hours)
		m.consDirty = min(m.consDirty+n*step, c.Cfg.ReintegrateDirtyCap)
	case m.uploaded:
		rate := c.Cfg.IdleDirtyPerHour
		if v.Active {
			rate = c.Cfg.ActiveDirtyPerHour
		}
		step := units.Bytes(float64(rate) * hours)
		m.dirtySinceUpload = min(m.dirtySinceUpload+n*step, v.Alloc)
	}
	return m
}

// homeVMs returns the VMs homed on home host id: New lays VMs out home
// by home and a VM's Home never changes.
func (c *Cluster) homeVMs(id int) []*vm.VM {
	return c.VMs[id*c.Cfg.VMsPerHost : (id+1)*c.Cfg.VMsPerHost]
}

// hostByID returns a host.
func (c *Cluster) hostByID(id int) *host.Host { return c.Hosts[id] }

// classRate returns the idle access rate adapter for a VM's class.
func classRate(class vm.Class) migration.ClassRate {
	switch class {
	case vm.WebServer:
		return migration.WebRate
	case vm.DBServer:
		return migration.DBRate
	default:
		return migration.DesktopRate
	}
}
