package oasis

import (
	"io"

	"oasis/internal/cluster"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/migration"
	"oasis/internal/pagestore"
	"oasis/internal/power"
	"oasis/internal/rng"
	"oasis/internal/sim"
	"oasis/internal/sim/scenario"
	"oasis/internal/simtime"
	"oasis/internal/telemetry"
	"oasis/internal/trace"
	"oasis/internal/units"
	"oasis/internal/vm"
	"oasis/internal/workload"
)

// ---- Sizes and identifiers ----

// Bytes is a memory size; see KiB, MiB, GiB.
type Bytes = units.Bytes

// Size constants.
const (
	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB
	// PageSize is the 4 KiB guest page granularity.
	PageSize = units.PageSize
)

// VMID identifies a virtual machine.
type VMID = pagestore.VMID

// PFN is a guest pseudo-physical frame number.
type PFN = pagestore.PFN

// ---- Consolidation policies (§3.2) ----

// Policy selects how the cluster manager reacts to consolidated VM state
// changes.
type Policy = cluster.Policy

// The paper's policies plus the FullOnly prior-work baseline.
const (
	OnlyPartial   = cluster.OnlyPartial
	Default       = cluster.Default
	FulltoPartial = cluster.FulltoPartial
	NewHome       = cluster.NewHome
	FullOnly      = cluster.FullOnly
)

// ---- Cluster configuration and simulation (§5) ----

// ClusterConfig sizes a cluster and sets policy and calibration.
type ClusterConfig = cluster.Config

// DefaultClusterConfig returns the §5.1 evaluation configuration: 30 home
// hosts of 30 VMs (4 GiB each) plus 4 consolidation hosts in a rack with
// a 10 GigE switch, using the FulltoPartial policy.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// Cluster is a managed Oasis cluster bound to a simulation clock.
type Cluster = cluster.Cluster

// ClusterStats carries the manager's traffic/delay/ratio measurements.
type ClusterStats = cluster.Stats

// NewCluster builds a cluster on the given simulator.
func NewCluster(s *simtime.Simulator, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(s, cfg)
}

// NewSimulator returns a fresh discrete-event simulation clock.
func NewSimulator() *simtime.Simulator { return simtime.New() }

// DayKind distinguishes weekday from weekend traces.
type DayKind = trace.DayKind

// Trace day kinds.
const (
	Weekday = trace.Weekday
	Weekend = trace.Weekend
)

// SimConfig describes one trace-driven cluster-day simulation.
type SimConfig = sim.Config

// SimResult is a simulated day's outcome: energy, savings, per-interval
// series and manager statistics.
type SimResult = sim.Result

// SimSummary aggregates repeated runs.
type SimSummary = sim.Summary

// DefaultSimConfig returns the §5 evaluation setup: the default cluster
// against a weekday trace.
func DefaultSimConfig() SimConfig {
	return SimConfig{Cluster: cluster.DefaultConfig(), Kind: trace.Weekday, TraceSeed: 1}
}

// Simulate runs one cluster day and reports energy savings and the
// measurements behind Figures 7-11.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimulateN runs n days with distinct seeds and aggregates savings, the
// way the paper averages five runs per data point.
func SimulateN(cfg SimConfig, n int) (*SimSummary, error) { return sim.RunN(cfg, n) }

// WeekResult aggregates five weekdays and two weekend days.
type WeekResult = sim.WeekResult

// SimulateWeek runs a full working week (5:2 weekday/weekend weighting).
func SimulateWeek(cfg SimConfig, runsPerKind int) (*WeekResult, error) {
	return sim.RunWeek(cfg, runsPerKind)
}

// ContinuousResult is a multi-day run with cluster state carried across
// days.
type ContinuousResult = sim.ContinuousResult

// SimulateContinuous runs the given day sequence on one cluster without
// resets — the long-run stability check.
func SimulateContinuous(cfg SimConfig, days []DayKind) (*ContinuousResult, error) {
	return sim.RunContinuous(cfg, days)
}

// ---- Fleet-scale simulation and the scenario library ----

// FleetConfig describes a fleet run: total users sharded into
// independent cells (racks), worker parallelism, timezone spread, and
// fleet-wide events (flash crowd, correlated failures).
type FleetConfig = sim.FleetConfig

// FleetResult is the deterministic merge of every cell's day. Its
// Fingerprint method is the bit-identity proof: equal across worker
// counts at a fixed seed.
type FleetResult = sim.FleetResult

// SimulateFleet runs cfg.Users users for one simulated day, sharded by
// cell across cfg.Workers goroutines, and merges the results
// deterministically (bit-identical to the serial Workers=1 path).
func SimulateFleet(cfg FleetConfig) (*FleetResult, error) { return sim.RunFleet(cfg) }

// Scenario is a named fleet configuration from the scenario library
// (global-fleet, flash-crowd, correlated-failures, ballooning,
// hmm-tier).
type Scenario = scenario.Scenario

// ParseScenario resolves a scenario spec: "name" or
// "name,key=value,...". The result is validated and runnable.
func ParseScenario(spec string) (Scenario, error) { return scenario.Parse(spec) }

// ScenarioByName returns a named scenario with its default parameters.
func ScenarioByName(name string) (Scenario, bool) { return scenario.ByName(name) }

// ScenarioNames lists the scenario library, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ---- Power (Table 1) ----

// PowerProfile is a host energy profile.
type PowerProfile = power.Profile

// DefaultPowerProfile returns the Table 1 measurements: 137.9 W hosting,
// 12.9 W in S3, 42.2 W memory server, 3.1 s suspend / 2.3 s resume.
func DefaultPowerProfile() PowerProfile { return power.DefaultProfile() }

// LinearPowerProfile returns the per-active-VM linear power model used by
// the power-model ablation.
func LinearPowerProfile() PowerProfile { return power.LinearProfile() }

// ---- Migration models (§4.4, §5.1) ----

// MigrationModel holds calibrated migration latency and traffic
// parameters.
type MigrationModel = migration.Model

// MicroBenchModel returns the §4.4 testbed calibration (1 GigE network,
// 128 MiB/s SAS) that reproduces Figure 5.
func MicroBenchModel() MigrationModel { return migration.MicroBenchModel() }

// ClusterModel returns the §5.1 rack calibration (10 GigE, 10 s full
// migration of a 4 GiB VM).
func ClusterModel() MigrationModel { return migration.ClusterModel() }

// ---- Functional layer: memory server, memtap, hypervisor ----

// MemServer is a memory page server daemon (§4.3): it serves a sleeping
// host's VM pages over TCP.
type MemServer = memserver.Server

// MemServerStats reports a daemon's counters.
type MemServerStats = memserver.Stats

// NewMemServer creates a memory page server authenticating clients with
// the shared secret. logf may be nil.
func NewMemServer(secret []byte, logf func(string, ...any)) *MemServer {
	return memserver.NewServer(secret, logf)
}

// ---- Resilient client path (fault tolerance) ----

// ResilienceConfig tunes the retry/backoff/breaker behaviour of a
// MemClientPool's connections; the zero value selects sensible defaults.
type ResilienceConfig = memserver.ResilientConfig

// ResilienceStats counts what the fault path did: retries, reconnects,
// failures, breaker transitions.
type ResilienceStats = memserver.ResilienceStats

// ErrCircuitOpen is returned while the breaker is open and the memory
// server is presumed down.
var ErrCircuitOpen = memserver.ErrCircuitOpen

// ErrMemtapDegraded wraps page-fetch errors once a memtap's breaker has
// opened; the VM should be force-promoted to its home (full migration).
var ErrMemtapDegraded = memtap.ErrDegraded

// Memtap services the page faults of one partial VM from a memory server
// (§4.2).
type Memtap = memtap.Memtap

// NewMemtap dials the memory server holding the VM's pages through a
// resilient client (reconnect, retry, circuit breaker).
func NewMemtap(vmid VMID, addr string, secret []byte) (*Memtap, error) {
	return memtap.New(vmid, addr, secret)
}

// NewMemtapWithClient builds a memtap over a caller-supplied page client
// (e.g. a MemConn dialed with custom tuning).
func NewMemtapWithClient(vmid VMID, client memtap.PageClient) *Memtap {
	return memtap.NewWithClient(vmid, client)
}

// MemClientPool is the single-server client, the shape Dial returns
// without WithBackends: one or more authenticated connections (one
// unless WithPool says more) that reconnect, with bounded retries of
// the (idempotent) operations and one circuit breaker for the server.
// Independent requests proceed in parallel across the connections while
// each keeps its strict request/response serialization (DESIGN.md §9).
type MemClientPool = memserver.ClientPool

// MemPoolConfig sizes a MemClientPool and tunes its resilience; the
// zero value selects defaults.
type MemPoolConfig = memserver.PoolConfig

// MemtapOptions tunes a memtap's transport: connection-pool width,
// and the pool's resilience. PrefetchStreams is kept for existing
// configurations and ignored: a conversion's batches in flight follow
// from the lanes and the CPUs.
type MemtapOptions = memtap.Options

// NewMemtapWithOptions dials the memory server with the configured
// transport: PoolSize > 1 fans faults and prefetch batches across pooled
// connections, and a conversion keeps a batch in flight per lane and a
// second per lane where a CPU is free to decode it.
func NewMemtapWithOptions(vmid VMID, addr string, secret []byte, opts MemtapOptions) (*Memtap, error) {
	return memtap.NewWithOptions(vmid, addr, secret, opts)
}

// VMDescriptor is the metadata pushed to a destination host to create a
// partial VM: sizing, page tables, execution context (§4.2).
type VMDescriptor = hypervisor.Descriptor

// NewVMDescriptor builds a descriptor for a guest.
func NewVMDescriptor(id VMID, name string, alloc Bytes, vcpus int) *VMDescriptor {
	return hypervisor.NewDescriptor(id, name, alloc, vcpus)
}

// PartialVM is a VM created from a descriptor with most memory absent;
// accesses to absent pages fault through a Pager.
type PartialVM = hypervisor.PartialVM

// Pager retrieves missing pages for a partial VM; Memtap implements it.
type Pager = hypervisor.Pager

// NewPartialVM instantiates a partial VM whose faults are serviced by the
// pager.
func NewPartialVM(desc *VMDescriptor, pager Pager) (*PartialVM, error) {
	return hypervisor.NewPartialVM(desc, pager)
}

// Image is a sparse per-VM memory image with dirty-epoch tracking.
type Image = pagestore.Image

// NewImage creates an empty image for a VM of the given allocation.
func NewImage(alloc Bytes) *Image { return pagestore.NewImage(alloc) }

// EncodeImage encodes every touched page of an image into the compressed
// snapshot format used for memory-server uploads. The encode is sharded
// over GOMAXPROCS goroutines; the bytes do not depend on how many.
func EncodeImage(im *Image) (data []byte, pages int, err error) {
	return pagestore.EncodeAll(im)
}

// EncodeImageDiff encodes only the pages dirtied since epoch — the
// differential-upload optimisation of §4.3.
func EncodeImageDiff(im *Image, epoch uint64) (data []byte, pages int, err error) {
	return pagestore.EncodeDirtySince(im, epoch)
}

// UploadOptions tunes a MemConn's chunked streaming uploads
// (StreamImage/StreamDiff): concurrent streams and chunk size. The zero
// value selects defaults (serial, 4 MiB chunks).
type UploadOptions = memserver.PutOptions

// SplitSnapshot cuts an encoded snapshot into self-contained chunks of
// at most maxChunk bytes — the unit of the chunked upload protocol.
func SplitSnapshot(data []byte, maxChunk int) ([][]byte, error) {
	return pagestore.SplitSnapshot(data, maxChunk)
}

// ApplySnapshot decodes a snapshot into an image.
func ApplySnapshot(im *Image, data []byte) error { return pagestore.ApplySnapshot(im, data) }

// ---- Telemetry (OBSERVABILITY.md) ----

// MetricsRegistry is a live registry of counters, gauges and histograms.
// Library components publish into the process-wide DefaultMetrics
// registry; tests and embedders may construct their own with
// NewMetricsRegistry and pass it via ResilienceConfig.Registry or
// MemServer.SetMetricsRegistry.
type MetricsRegistry = telemetry.Registry

// MetricsServer is a running observability HTTP endpoint.
type MetricsServer = telemetry.HTTPServer

// DefaultMetrics returns the process-wide registry every component
// publishes into by default.
func DefaultMetrics() *MetricsRegistry { return telemetry.Default }

// NewMetricsRegistry returns an empty, independent registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// ServeMetrics starts the observability endpoint (Prometheus /metrics,
// fault-path /traces, /debug/pprof) on addr, serving the process
// defaults. It is what the daemons' -metrics-addr flags call.
func ServeMetrics(addr string) (*MetricsServer, error) {
	return telemetry.Serve(addr, nil, nil)
}

// WriteMetricsText dumps the default registry's current values as
// name{labels} value lines, keeping only metrics whose name begins with
// prefix ("" for all). CLI tools print final statistics through this so
// their output cannot drift from what /metrics scrapes report.
func WriteMetricsText(w io.Writer, prefix string) error {
	return telemetry.Default.WriteText(w, prefix)
}

// WriteFaultTraces writes the n most recent page-fault spans recorded in
// this process (newest first; n <= 0 for all held), one line per span
// with the per-stage latency split. One fault in 64 is traced. The tracer lives in the process that
// runs the memtap — a memserverd scrape shows only server-side metrics.
func WriteFaultTraces(w io.Writer, n int) error {
	return telemetry.FaultPath.WriteTextN(w, n)
}

// ---- Workload and trace generation (§5.1) ----

// VMClass is a workload class (desktop, web server, database server).
type VMClass = vm.Class

// Workload classes from Figures 1 and 2.
const (
	DesktopVM = vm.Desktop
	WebVM     = vm.WebServer
	DBVM      = vm.DBServer
)

// SampleWorkingSet draws an idle working set from the 165.63 ± 91.38 MiB
// distribution the evaluation uses.
func SampleWorkingSet(seed uint64) Bytes {
	return workload.SampleWorkingSet(rng.New(seed))
}

// UserDay is one user's activity for one day in 5-minute intervals.
type UserDay = trace.UserDay

// TraceSet is a collection of user-days.
type TraceSet = trace.Set

// GenerateTrace synthesises n user-days with the statistical properties
// of the paper's desktop traces (diurnal weekday peak ~2 pm at ≤46%
// simultaneous activity, quiet weekends).
func GenerateTrace(kind DayKind, n int, seed uint64) *TraceSet {
	return trace.GenerateSet(kind, n, rng.New(seed))
}

// TraceStream yields the user-days of a seeded corpus one at a time in
// O(1) memory — the streaming form of GenerateTrace, bit-identical to
// the materialized set at the same base seed.
type TraceStream = trace.Stream

// StreamTrace returns an iterator over n user-days derived from base.
func StreamTrace(kind DayKind, n int, base uint64) *TraceStream {
	return trace.NewStream(kind, n, base)
}

// TraceUserDay synthesises one user's day from a corpus base seed,
// independent of every other user — any user's day is reproducible
// without generating the users before it.
func TraceUserDay(kind DayKind, base, user uint64) UserDay {
	return trace.UserDayAt(base, user, kind)
}
