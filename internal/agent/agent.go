// Package agent implements the Oasis host agent (§4.2): the user-level
// process on each host that owns its VMs, performs partial and full
// migrations and reintegration against other agents, uploads memory
// images to the host's memory server, and reports statistics to the
// cluster manager. A thin Manager (manager.go) drives a set of agents the
// way §4.1 describes, and an Applier (applier.go) drives them with the
// simulator's consolidation policy.
//
// The agent is fully functional over TCP: partial migration really pushes
// a descriptor and serves pages on demand through memtap; full migration
// really streams the compressed image; reintegration really pushes only
// dirty state. Host power states are simulated flags (there is no ACPI to
// drive on a test machine), but the memory server keeps answering while
// the agent is "suspended", which is the property the design depends on.
package agent

import (
	"fmt"
	"net"
	"slices"
	"sync"

	"oasis/internal/flagbind"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
	"oasis/internal/wire"
)

// agentTel is one agent's live instruments, labeled by host name so a
// multi-agent process (tests, a co-located control plane) keeps hosts
// apart in one scrape. Migration counters count the source side of each
// operation, matching the agent log lines.
type agentTel struct {
	migrations  func(kind string) *telemetry.Counter
	promotions  *telemetry.Counter
	quarantines *telemetry.Counter
	suspended   *telemetry.Gauge
}

func newAgentTel(host string) *agentTel {
	l := telemetry.L("host", host)
	return &agentTel{
		migrations: func(kind string) *telemetry.Counter {
			return telemetry.Default.Counter("oasis_agent_migrations_total",
				"Migration operations completed at this agent, by kind.",
				l, telemetry.L("kind", kind))
		},
		promotions: telemetry.Default.Counter("oasis_agent_force_promotions_total",
			"Degraded partial VMs force-promoted home (§4.4.4).", l),
		quarantines: telemetry.Default.Counter("oasis_agent_quarantines_total",
			"VMs quarantined after a failed forced promotion.", l),
		suspended: telemetry.Default.Gauge("oasis_agent_suspended",
			"1 while the host is suspended (memory server still serving).", l),
	}
}

// managedVM is one VM under an agent's control.
type managedVM struct {
	desc  *hypervisor.Descriptor
	phase phase // written by set alone

	// image is the full memory image when the VM runs here in full, the
	// retained DRAM copy while it is away (S3 keeps memory in
	// self-refresh, which is why reintegration only needs dirty pages),
	// and the inbound copy while it is staged.
	image *pagestore.Image

	// pvm/mt are set exactly while the VM is in a partial phase.
	pvm *hypervisor.PartialVM
	mt  *memtap.Memtap

	// uploadedEpoch is the image epoch as of the last memory-server
	// upload; it enables differential uploads.
	uploaded      bool
	uploadedEpoch uint64
}

// phase is where a VM stands on this host (§4.2). Every RPC handler names
// the phases it accepts and moves a VM only through set, along the edges
// of next. A hand-off to a peer is two phases: live while guest writes
// may still land (pre-copy rounds, adoption's prefetch), then paused from
// the snapshot the peer resumes from onwards. A paused VM refuses writes:
// one acknowledged after that snapshot would exist nowhere once the peer
// takes over.
type phase uint8

// The order groups the phases: the first three do not run the guest
// here, away through homePaused are owned here, and the last four are
// partial VMs.
const (
	gone          phase = iota // not on this host
	staged                     // an inbound live migration filling image; the guest runs at its source
	away                       // runs elsewhere as a partial VM; image is the retained copy
	home                       // runs here in full
	homeLive                   // home, in pre-copy rounds to a peer
	homePaused                 // home, handed off from the snapshot its peer resumes from
	partial                    // runs here as a partial VM
	quarantined                // partial, and its forced promotion home failed (§4.4.4)
	partialLive                // partial, prefetching its last pages to be adopted here
	partialPaused              // partial, pushing its dirty pages home
)

var phaseNames = [...]string{
	gone: "not here", staged: "staged", away: "away", home: "running here",
	homeLive: "in pre-copy", homePaused: "paused for a hand-off",
	partial: "a partial VM here", quarantined: "quarantined",
	partialLive: "being adopted", partialPaused: "paused on its way home",
}

func (p phase) String() string { return phaseNames[p] }

func (p phase) partialVM() bool { return p >= partial }

// next is the transition table: the phases each phase may move to. A
// failed hand-off goes back to the phase it started from, and a failed
// forced promotion to quarantined.
var next = [...][]phase{
	gone:          {home, staged, partial},
	staged:        {home},
	away:          {home},
	home:          {homeLive, homePaused},
	homeLive:      {homePaused, home},
	homePaused:    {away, gone, home},
	partial:       {partialLive, partialPaused},
	quarantined:   {partialLive, partialPaused},
	partialLive:   {home, partial, quarantined},
	partialPaused: {gone, partial, quarantined},
}

// The phases the guest runs here in (and reads are served), and those of
// them that take writes.
var (
	running  = []phase{home, homeLive, homePaused, partial, quarantined, partialLive, partialPaused}
	writable = []phase{home, homeLive, partial, quarantined, partialLive}
)

// Agent is one host's agent plus its memory server.
type Agent struct {
	Name   string
	secret []byte
	logf   func(string, ...any)

	rpc *wire.Server
	mem *memserver.Server

	rpcAddr net.Addr
	memAddr net.Addr

	mu        sync.Mutex
	vms       map[pagestore.VMID]*managedVM
	suspended bool

	peersMu sync.Mutex
	peers   map[string]*wire.Client // nil once closed

	// conns is this host's connection to each memory server, by address,
	// and its fabric (lease.go).
	connsMu sync.Mutex
	conns   map[string]*pageConn

	// transport tunes the page-transport layer (connection pool width)
	// of the memory-server connections this agent dials for inbound
	// partial VMs, and, when sharded, the fabric and the upload stream
	// count of the agent's own detach path.
	transport TransportConfig

	tel *agentTel
}

// TransportConfig tunes the parallel page-transport layer an agent gives
// inbound partial VMs: PoolSize lanes on its connection to each memory
// server (1 keeps the serial client); a conversion keeps a batch in
// flight per lane and a second where a CPU is free, and PrefetchStreams
// is ignored. UploadStreams is the chunked upload streams a sharded
// agent opens to each backend on a detach (an unsharded one installs
// into its own memory server in process). Zero fields select the
// defaults. Neither the snapshot encode nor the conversion's decode
// needs a knob: both run on every core.
//
// It is the shared flagbind.Transport: when Backends is non-empty the
// agent detaches to (and hands partial VMs pages from) a sharded,
// replicated memory-server fabric instead of its own host-local daemon,
// with Replicas copies of every page range.
type TransportConfig = flagbind.Transport

// SetTransport configures the page-transport layer for partial VMs
// received after the call; it does not retrofit connections already up.
func (a *Agent) SetTransport(tc TransportConfig) {
	a.mu.Lock()
	a.transport = tc
	a.mu.Unlock()
}

// transportConfig returns a copy of the transport config.
func (a *Agent) transportConfig() TransportConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	tc := a.transport
	tc.Backends = slices.Clone(tc.Backends)
	return tc
}

// New creates an agent. Start must be called before use.
func New(name string, secret []byte, logf func(string, ...any)) *Agent {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Agent{
		Name:   name,
		secret: append([]byte(nil), secret...),
		logf:   logf,
		mem:    memserver.NewServer(secret, logf),
		vms:    make(map[pagestore.VMID]*managedVM),
		peers:  make(map[string]*wire.Client),
		conns:  make(map[string]*pageConn),
		tel:    newAgentTel(name),
	}
}

// Start binds the agent's RPC endpoint and its memory server. Use
// "127.0.0.1:0" to pick free ports.
func (a *Agent) Start(rpcAddr, memListenAddr string) error {
	a.rpc = wire.NewServer(a.logf)
	a.register()
	addr, err := a.rpc.Listen(rpcAddr)
	if err != nil {
		return err
	}
	a.rpcAddr = addr
	maddr, err := a.mem.Listen(memListenAddr)
	if err != nil {
		a.rpc.Close()
		return err
	}
	a.memAddr = maddr
	return nil
}

// Close shuts down the agent, its memory server and its connections.
func (a *Agent) Close() error {
	a.peersMu.Lock()
	for _, c := range a.peers {
		c.Close()
	}
	a.peers = nil
	a.peersMu.Unlock()
	a.connsMu.Lock()
	conns := a.conns
	a.conns = nil
	a.connsMu.Unlock()
	for _, c := range conns {
		c.client.Close() // outside connsMu: a closing fabric may still report
	}
	var err error
	if a.rpc != nil {
		err = a.rpc.Close()
	}
	if e := a.mem.Close(); err == nil {
		err = e
	}
	return err
}

// Addr returns the agent's RPC address.
func (a *Agent) Addr() string { return a.rpcAddr.String() }

// MemServerAddr returns the host's memory-server address.
func (a *Agent) MemServerAddr() string { return a.memAddr.String() }

// callPeer calls method on the agent at addr over a connection dialed on
// first use and kept (the client redials after a transport failure). A
// closed agent dials nothing.
func (a *Agent) callPeer(addr, method string, args any, payload []byte) error {
	a.peersMu.Lock()
	if a.peers == nil {
		a.peersMu.Unlock()
		return fmt.Errorf("agent %s is closed", a.Name)
	}
	c, ok := a.peers[addr]
	if !ok {
		var err error
		if c, err = wire.Dial(addr); err != nil {
			a.peersMu.Unlock()
			return err
		}
		a.peers[addr] = c
	}
	a.peersMu.Unlock()
	_, err := c.CallPayload(method, args, payload, nil)
	return err
}

// ---- RPC parameter types ----

// CreateVMArgs configures a new VM (§4.1: vmid, disk path, memory,
// vCPUs).
type CreateVMArgs struct {
	VMID  pagestore.VMID `json:"vmid"`
	Name  string         `json:"name"`
	Alloc units.Bytes    `json:"alloc"`
	VCPUs int            `json:"vcpus"`
	Disk  string         `json:"disk"`
}

// PageArgs addresses one guest page; its contents travel as the frame's
// payload (the request's for WritePage, the reply's for ReadPage).
type PageArgs struct {
	VMID pagestore.VMID `json:"vmid"`
	PFN  pagestore.PFN  `json:"pfn"`
}

// MigrateArgs requests a migration to another agent.
type MigrateArgs struct {
	VMID pagestore.VMID `json:"vmid"`
	Dest string         `json:"dest"` // destination agent RPC address
}

// receivePartialArgs carries a partial-VM hand-off. Backends/Replicas,
// when set, tell the destination the pages live on a shard fabric
// rather than the single server at MemAddr; it refuses the hand-off
// unless its own fabric is that one.
type receivePartialArgs struct {
	Backends []string              `json:"backends,omitempty"`
	Replicas int                   `json:"replicas,omitempty"`
	Desc     hypervisor.Descriptor `json:"desc"`
	MemAddr  string                `json:"mem_addr"`
}

// vmArgs names the VM a call is about: the one to adopt, or the one the
// snapshot chunk in the frame's payload belongs to.
type vmArgs struct {
	VMID pagestore.VMID `json:"vmid"`
}

// RecoverArgs requests forced promotion of a degraded partial VM back to
// its owner (§4.4.4 degradation ladder). Dest is the owner's RPC
// address; Force promotes even if the memtap does not currently report
// the VM degraded (operator override).
type RecoverArgs struct {
	VMID  pagestore.VMID `json:"vmid"`
	Dest  string         `json:"dest"`
	Force bool           `json:"force,omitempty"`
}

// VMInfo describes a VM's residency on this agent.
type VMInfo struct {
	VMID    pagestore.VMID `json:"vmid"`
	Name    string         `json:"name"`
	Alloc   units.Bytes    `json:"alloc"`
	Owner   bool           `json:"owner"`
	Away    bool           `json:"away"`
	Partial bool           `json:"partial"`
	Faults  int64          `json:"faults"`

	// Degraded reports that the VM's memtap cannot reach its memory
	// server (circuit breaker open); Underreplicated that its shard
	// fabric still serves reads but with reduced redundancy (a backend
	// down or ranges below their replica target); Quarantined that a
	// forced promotion also failed. Retries/Reconnects expose the
	// memtap's resilience counters for availability accounting.
	Degraded        bool  `json:"degraded,omitempty"`
	Underreplicated bool  `json:"underreplicated,omitempty"`
	Quarantined     bool  `json:"quarantined,omitempty"`
	Retries         int64 `json:"retries,omitempty"`
	Reconnects      int64 `json:"reconnects,omitempty"`
}

// Stats summarises the agent's state for the manager's periodic
// collection (§4.1).
type Stats struct {
	Name      string   `json:"name"`
	Suspended bool     `json:"suspended"`
	VMs       []VMInfo `json:"vms"`
	MemServer memserver.Stats
}

func (a *Agent) register() {
	wire.Handle(a.rpc, "Agent.CreateVM", a.handleCreateVM)
	wire.Handle(a.rpc, "Agent.WritePage", a.handleWritePage)
	wire.Handle(a.rpc, "Agent.ReadPage", a.handleReadPage)
	wire.Handle(a.rpc, "Agent.PartialMigrate", a.handlePartialMigrate)
	wire.Handle(a.rpc, "Agent.ReceivePartial", a.handleReceivePartial)
	wire.Handle(a.rpc, "Agent.FullMigrate", a.handleFullMigrate)
	wire.Handle(a.rpc, "Agent.ReceiveFull", a.handleReceiveFull)
	wire.Handle(a.rpc, "Agent.ReceiveFullDelta", a.receiveSnapshot(map[phase]phase{staged: staged, away: away}))
	wire.Handle(a.rpc, "Agent.ActivateFull", a.receiveSnapshot(map[phase]phase{staged: home}))
	wire.Handle(a.rpc, "Agent.ReceiveDirty", a.receiveSnapshot(map[phase]phase{away: home}))
	wire.Handle(a.rpc, "Agent.PostCopyMigrate", a.handlePostCopyMigrate)
	wire.Handle(a.rpc, "Agent.AdoptVM", a.handleAdoptVM)
	wire.Handle(a.rpc, "Agent.Reintegrate", a.handleReintegrate)
	wire.Handle(a.rpc, "Agent.RecoverDegraded", a.handleRecoverDegraded)
	wire.Handle(a.rpc, "Agent.Suspend", a.handleSuspend)
	wire.Handle(a.rpc, "Agent.Wake", a.handleWake)
	wire.Handle(a.rpc, "Agent.Stats", a.handleStats)
	wire.Handle(a.rpc, "Agent.FabricAddBackend", a.handleFabricChange(true))
	wire.Handle(a.rpc, "Agent.FabricRemoveBackend", a.handleFabricChange(false))
	wire.Handle(a.rpc, "Agent.FabricStatus", a.handleFabricStatus)
}

// vm returns VM id if its phase here — gone when the id is absent — is
// one of in, and otherwise says which phase it is in. A suspended host
// accepts nothing. Called with a.mu held.
func (a *Agent) vm(id pagestore.VMID, in ...phase) (*managedVM, error) {
	if a.suspended {
		return nil, fmt.Errorf("agent %s: host is suspended", a.Name)
	}
	mv, p := a.vms[id], gone
	if mv != nil {
		p = mv.phase
	}
	if !slices.Contains(in, p) {
		return nil, fmt.Errorf("vm %04d is %v", id, p)
	}
	return mv, nil
}

// set moves mv to phase to, and is the only code that writes a phase. A
// VM leaving gone enters a.vms, replacing a staged or away entry for its
// id, and one moving to gone leaves it. pvm and mt belong to the partial
// phases: every move out of them closes mt and clears both, the VM
// keeping the partial VM's image. A move next does not list is a bug in
// the caller. Called with a.mu held.
func (a *Agent) set(mv *managedVM, to phase) {
	id := mv.desc.VMID
	if !slices.Contains(next[mv.phase], to) {
		panic(fmt.Sprintf("agent: vm %04d cannot go from %v to %v", id, mv.phase, to))
	}
	if mv.pvm != nil && !to.partialVM() {
		mv.image = mv.pvm.Image()
		mv.mt.Close()
		mv.pvm, mv.mt = nil, nil
	}
	switch {
	case mv.phase == gone:
		a.vms[id] = mv
	case to == gone:
		delete(a.vms, id)
	}
	mv.phase = to
}

func (a *Agent) handleCreateVM(args CreateVMArgs, _ []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.vm(args.VMID, gone); err != nil {
		return nil, nil, err
	}
	if args.Alloc <= 0 {
		return nil, nil, fmt.Errorf("vm %04d: invalid allocation %d", args.VMID, args.Alloc)
	}
	desc := hypervisor.NewDescriptor(args.VMID, args.Name, args.Alloc, args.VCPUs)
	desc.DiskImagePath = args.Disk
	a.set(&managedVM{desc: desc, image: pagestore.NewImage(args.Alloc)}, home)
	a.logf("agent %s: created vm %04d (%v)", a.Name, args.VMID, args.Alloc)
	return nil, nil, nil
}

// handleWritePage stores the payload as the page's contents (the image
// copies it). A VM paused for a hand-off refuses the write.
func (a *Agent) handleWritePage(args PageArgs, data []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	mv, err := a.vm(args.VMID, writable...)
	switch {
	case err != nil:
		return nil, nil, err
	case mv.pvm != nil:
		return nil, nil, mv.pvm.Write(args.PFN, data)
	}
	return nil, nil, mv.image.Write(args.PFN, data)
}

// handleReadPage replies with the page as the frame's payload. An image
// never modifies a page in place (a write installs a new one), so the
// slice stays good while the reply is written outside a.mu.
func (a *Agent) handleReadPage(args PageArgs, _ []byte) (_ any, page []byte, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	mv, err := a.vm(args.VMID, running...)
	switch {
	case err != nil:
	case mv.pvm != nil:
		page, err = mv.pvm.Read(args.PFN)
	default:
		page, err = mv.image.Read(args.PFN)
	}
	return nil, page, err
}

// deleteImage frees a VM's memory-server image wherever the transport
// put it: every fabric backend when sharded, else the host-local store.
// Cleanup is best-effort — a missing image is not an error.
func (a *Agent) deleteImage(id pagestore.VMID) {
	if tc := a.transportConfig(); !tc.Sharded() {
		a.mem.Store().Delete(id)
	} else if f, err := a.conn(fabricKey); err == nil {
		f.client.Delete(id) //nolint:errcheck // best-effort cleanup
	}
}

// upload ships a snapshot — the full image, or a diff against the image
// already there — to the VM's memory backend: the shard fabric, over
// UploadStreams chunked streams per backend, when the transport is
// sharded, else the host-local (SAS, §4.3) install into this host's
// own memory server. Every path swaps the result in atomically.
func (a *Agent) upload(id pagestore.VMID, alloc units.Bytes, snap []byte, diff bool) error {
	tc := a.transportConfig()
	if !tc.Sharded() {
		if diff {
			return a.mem.ApplyDiff(id, snap)
		}
		return a.mem.InstallImage(id, alloc, snap)
	}
	f, err := a.conn(fabricKey)
	if err != nil {
		return err
	}
	opts := memserver.PutOptions{Streams: max(tc.UploadStreams, 1)}
	if diff {
		return f.client.StreamDiff(id, snap, opts)
	}
	return f.client.StreamImage(id, alloc, snap, opts)
}

// claim starts a hand-off: it moves VM id from one of from to phase to
// and returns it with the phase it left, which the caller's deferred
// settle goes back to unless the hand-off names another end.
func (a *Agent) claim(id pagestore.VMID, to phase, from ...phase) (*managedVM, phase, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	mv, err := a.vm(id, from...)
	if err != nil {
		return nil, gone, err
	}
	was := mv.phase
	a.set(mv, to)
	return mv, was, nil
}

// settle ends a hand-off in phase end.
func (a *Agent) settle(mv *managedVM, end phase) {
	a.mu.Lock()
	a.set(mv, end)
	a.mu.Unlock()
}

// A frame carries one chunk of the streaming budget; wire refuses more.
const _ = uint(wire.MaxPayload - memserver.DefaultChunkBytes)

// pushSnapshot is the one way a snapshot reaches a peer: cut into
// self-contained chunks of the streaming budget, one chunk per call, the
// last one to method last — the only call that changes state at the
// receiver. Page entries are absolute contents, so pushing again after a
// failure is idempotent.
func (a *Agent) pushSnapshot(dest string, id pagestore.VMID, snap []byte, last string) error {
	chunks, err := pagestore.SplitSnapshot(snap, memserver.DefaultChunkBytes)
	if err != nil {
		return err
	}
	for i, chunk := range chunks {
		method := "Agent.ReceiveFullDelta"
		if i == len(chunks)-1 {
			method = last
		}
		if err := a.callPeer(dest, method, vmArgs{VMID: id}, chunk); err != nil {
			return err
		}
	}
	return nil
}

// receiveSnapshot is the apply step under every inbound snapshot push,
// keyed by phase: moves maps each phase the call accepts to the one it
// leaves the VM in. The chunk lands in the VM's image — the retained copy
// of an away VM or a staged live migration's — and only the call that
// completes a push (ActivateFull, ReceiveDirty) changes the phase.
func (a *Agent) receiveSnapshot(moves map[phase]phase) func(vmArgs, []byte) (any, []byte, error) {
	var from []phase
	for p := range moves {
		from = append(from, p)
	}
	return func(args vmArgs, chunk []byte) (any, []byte, error) {
		a.mu.Lock()
		defer a.mu.Unlock()
		mv, err := a.vm(args.VMID, from...)
		if err != nil {
			return nil, nil, err
		}
		if err := pagestore.ApplySnapshot(mv.image, chunk); err != nil {
			return nil, nil, err
		}
		if to := moves[mv.phase]; to != mv.phase {
			a.logf("agent %s: vm %04d was %v, resumed here", a.Name, args.VMID, mv.phase)
			a.set(mv, to)
		}
		return nil, nil, nil
	}
}

// handlePartialMigrate implements the source side of §4.2 partial
// migration (see detach); the VM is away once its peer runs it.
func (a *Agent) handlePartialMigrate(args MigrateArgs, _ []byte) (any, []byte, error) {
	mv, end, err := a.claim(args.VMID, homePaused, home)
	if err != nil {
		return nil, nil, err
	}
	defer func() { a.settle(mv, end) }()
	if err = a.detach(mv, args.Dest); err == nil {
		end = away
	}
	return nil, nil, err
}

// detach moves a claimed, paused home VM to dest as a partial VM: upload
// its memory to the host's memory server (differential when possible)
// and push the descriptor to the destination agent, which resumes it.
func (a *Agent) detach(mv *managedVM, dest string) (err error) {
	// Upload memory to the memory server: full image the first time,
	// only dirty pages afterwards (§4.3 differential upload).
	a.mu.Lock()
	var snap []byte
	var pages int
	if mv.uploaded {
		snap, pages, err = pagestore.EncodeDirtySince(mv.image, mv.uploadedEpoch)
	} else {
		snap, pages, err = pagestore.EncodeAll(mv.image)
	}
	if err != nil {
		a.mu.Unlock()
		return err
	}
	epoch := mv.image.NextEpoch()
	wasUploaded := mv.uploaded
	handoff := receivePartialArgs{Desc: *mv.desc, MemAddr: a.memAddr.String()}
	handoff.Desc.MemServerAddr = handoff.MemAddr
	a.mu.Unlock()

	id := mv.desc.VMID
	if err := a.upload(id, handoff.Desc.Alloc, snap, wasUploaded); err != nil {
		return err
	}

	// Push the descriptor to the destination, with the fabric membership
	// as it stands now that the upload has landed.
	tc := a.transportConfig()
	handoff.Backends, handoff.Replicas = tc.Backends, tc.Replicas
	if err := a.callPeer(dest, "Agent.ReceivePartial", handoff, handoff.Desc.ExecContext); err != nil {
		return err
	}

	a.mu.Lock()
	mv.uploaded = true
	mv.uploadedEpoch = epoch
	a.mu.Unlock()
	a.tel.migrations("partial").Inc()
	a.logf("agent %s: partial migrated vm %04d to %s (%d pages uploaded)", a.Name, id, dest, pages)
	return nil
}

// handleReceivePartial implements the destination side: create a partial
// VM whose faults are serviced by a memtap talking to the source's memory
// server, or to the fabric, over this host's one client for it
// (lease.go). The exec context is the frame's payload.
func (a *Agent) handleReceivePartial(args receivePartialArgs, execContext []byte) (any, []byte, error) {
	desc := &args.Desc
	desc.ExecContext = slices.Clone(execContext)
	mt, err := a.memtapFor(&args)
	if err != nil {
		return nil, nil, err
	}
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		mt.Close()
		return nil, nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.vm(desc.VMID, gone, staged); err != nil {
		mt.Close()
		return nil, nil, err
	}
	a.set(&managedVM{desc: desc, pvm: pvm, mt: mt}, partial)
	a.logf("agent %s: received partial vm %04d (pages from %s)", a.Name, desc.VMID, args.MemAddr)
	return nil, nil, nil
}

// precopyRounds bounds the iterative phase of pre-copy live migration;
// precopyStopPages is the dirty-set size at which the VM is stopped and
// the remainder copied (§2: "Once the set of dirty pages is small or the
// limit of iterations exceeded, the VM is suspended").
const (
	precopyRounds    = 5
	precopyStopPages = 16
)

// handleFullMigrate implements pre-copy live full migration (§2, §4.2):
// the destination stages the VM under its descriptor, the first round
// copies every page while the VM keeps running (and dirtying memory);
// subsequent rounds copy only pages dirtied during the previous round;
// when the dirty set is small the VM is stopped, the remainder
// transferred, and ownership switches to the destination. The source then
// frees everything including memory-server state. A failure at any point
// leaves the VM running here.
func (a *Agent) handleFullMigrate(args MigrateArgs, _ []byte) (any, []byte, error) {
	mv, end, err := a.claim(args.VMID, homeLive, home)
	if err != nil {
		return nil, nil, err
	}
	defer func() { a.settle(mv, end) }()
	a.mu.Lock()
	desc := *mv.desc
	epoch := mv.image.NextEpoch()
	snap, _, err := pagestore.EncodeAll(mv.image)
	a.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}

	// Round 1: the full image, VM still running here.
	if err := a.callPeer(args.Dest, "Agent.ReceiveFull", desc, desc.ExecContext); err != nil {
		return nil, nil, err
	}
	if err := a.pushSnapshot(args.Dest, args.VMID, snap, "Agent.ReceiveFullDelta"); err != nil {
		return nil, nil, err
	}

	// Iterative rounds: re-send pages dirtied during the previous round.
	rounds := 0
	for ; rounds < precopyRounds; rounds++ {
		a.mu.Lock()
		dirty := mv.image.DirtySince(epoch)
		if len(dirty) <= precopyStopPages {
			a.mu.Unlock()
			break
		}
		epoch = mv.image.NextEpoch()
		delta, err := pagestore.EncodePages(mv.image, dirty)
		a.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
		if err := a.pushSnapshot(args.Dest, args.VMID, delta, "Agent.ReceiveFullDelta"); err != nil {
			return nil, nil, err
		}
	}

	// Stop-and-copy: pause the VM, transfer the final dirty set, and let
	// the destination activate it.
	a.mu.Lock()
	a.set(mv, homePaused)
	final := mv.image.DirtySince(epoch)
	lastDelta, err := pagestore.EncodePages(mv.image, final)
	a.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	if err := a.pushSnapshot(args.Dest, args.VMID, lastDelta, "Agent.ActivateFull"); err != nil {
		return nil, nil, err
	}

	// Free all source resources, including any memory-server image.
	end = gone
	a.deleteImage(args.VMID)
	a.tel.migrations("full_live").Inc()
	a.logf("agent %s: live migrated vm %04d to %s (%d pre-copy rounds, %d stop-and-copy pages)",
		a.Name, args.VMID, args.Dest, rounds+1, len(final))
	return nil, nil, nil
}

// handlePostCopyMigrate implements post-copy live migration (§2): the VM
// suspends at the source and resumes at the destination immediately as a
// partial VM (only execution context and descriptor move up front); its
// memory is then actively pushed — here, the destination prefetches every
// remaining page from the source's memory server — and once complete the
// destination adopts ownership and the source frees all resources.
//
// Built from the partial-migration machinery, this shows the relationship
// the paper draws: partial VM migration *is* post-copy without the active
// push and without the ownership transfer.
func (a *Agent) handlePostCopyMigrate(args MigrateArgs, _ []byte) (any, []byte, error) {
	// Step 1: exactly a partial migration — suspend, upload, push the
	// descriptor, resume at the destination.
	mv, end, err := a.claim(args.VMID, homePaused, home)
	if err != nil {
		return nil, nil, err
	}
	defer func() { a.settle(mv, end) }()
	if err := a.detach(mv, args.Dest); err != nil {
		return nil, nil, err
	}
	end = away
	// Step 2: the destination pulls all remaining memory and adopts the
	// VM.
	if err := a.callPeer(args.Dest, "Agent.AdoptVM", vmArgs{VMID: args.VMID}, nil); err != nil {
		return nil, nil, fmt.Errorf("post-copy adopt failed (VM keeps running as partial at %s): %w",
			args.Dest, err)
	}
	// Step 3: free the source's copy and memory-server image (§4.2:
	// after full migration the destination owns the VM).
	end = gone
	a.deleteImage(args.VMID)
	a.tel.migrations("post_copy").Inc()
	a.logf("agent %s: post-copy migrated vm %04d to %s", a.Name, args.VMID, args.Dest)
	return nil, nil, nil
}

// handleAdoptVM completes a post-copy migration on the destination: it
// prefetches every absent page of the resident partial VM and converts it
// into an owned full VM (set closes its memtap).
func (a *Agent) handleAdoptVM(args vmArgs, _ []byte) (any, []byte, error) {
	mv, end, err := a.claim(args.VMID, partialLive, partial, quarantined)
	if err != nil {
		return nil, nil, err
	}
	defer func() { a.settle(mv, end) }()
	// The active push of post-copy: stream all remaining pages in
	// batches while the VM keeps executing, over a connection of their
	// own (lease.go). A ReadPage or WritePage meanwhile faults over the
	// host's shared one and never queues behind these exchanges.
	n, err := mv.mt.PrefetchRemaining(mv.pvm, 1024)
	if err != nil {
		return nil, nil, err
	}
	end = home
	a.tel.migrations("adopt").Inc()
	a.logf("agent %s: adopted vm %04d after prefetching %d pages", a.Name, args.VMID, n)
	return nil, nil, nil
}

// handleReceiveFull opens an inbound live migration: an empty image is
// staged under the VM's descriptor, the pre-copy rounds fill it chunk by
// chunk (ReceiveFullDelta) and ActivateFull switches it over. A staged
// copy left by an abandoned migration is replaced, and so is the retained
// copy of a VM away from here that became full elsewhere (converted in
// place): its memory-server image goes with it, as a full migration's
// source frees its own.
func (a *Agent) handleReceiveFull(desc hypervisor.Descriptor, execContext []byte) (any, []byte, error) {
	desc.ExecContext = slices.Clone(execContext)
	a.mu.Lock()
	mv, err := a.vm(desc.VMID, gone, staged, away)
	wasAway := mv != nil && mv.phase == away
	if err == nil {
		a.set(&managedVM{desc: &desc, image: pagestore.NewImage(desc.Alloc)}, staged)
	}
	a.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	if wasAway {
		a.deleteImage(desc.VMID)
	}
	a.logf("agent %s: staging inbound live migration of vm %04d", a.Name, desc.VMID)
	return nil, nil, nil
}

// sendHome hands a claimed, paused partial VM back to its owner: only
// the pages it wrote here travel (faulted-in pages already match the
// owner's retained DRAM copy, §4.2); the owner merges them with that copy
// and resumes the VM. It returns the number of dirty pages pushed.
func (a *Agent) sendHome(id pagestore.VMID, mv *managedVM, owner string) (int, error) {
	a.mu.Lock()
	snap, pages, err := mv.pvm.DirtySnapshot()
	a.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return pages, a.pushSnapshot(owner, id, snap, "Agent.ReceiveDirty")
}

// handleReintegrate implements §4.2 reintegration, executed on the
// consolidation host: push only the partial VM's dirty state back to the
// owner.
func (a *Agent) handleReintegrate(args MigrateArgs, _ []byte) (any, []byte, error) {
	mv, end, err := a.claim(args.VMID, partialPaused, partial, quarantined)
	if err != nil {
		return nil, nil, err
	}
	defer func() { a.settle(mv, end) }()
	pages, err := a.sendHome(args.VMID, mv, args.Dest)
	if err != nil {
		return nil, nil, err
	}
	end = gone
	a.tel.migrations("reintegrate").Inc()
	a.logf("agent %s: reintegrated vm %04d to %s (%d dirty pages)", a.Name, args.VMID, args.Dest, pages)
	return nil, nil, nil
}

// handleRecoverDegraded is the last rung before quarantine on the
// degradation ladder (§4.4.4): a partial VM whose memory server is gone
// (memtap breaker open) is force-promoted home. The mechanics are
// deliberately those of reintegration — the dirty pages live in THIS
// host's DRAM and the owner holds the retained last-good image, so the
// push home needs nothing from the failed memory server and loses no
// state: last good image + local dirty delta = the VM's exact memory.
// If even that push fails (owner unreachable), the VM is quarantined:
// left resident and flagged for manual recovery rather than silently
// retried forever.
func (a *Agent) handleRecoverDegraded(args RecoverArgs, _ []byte) (any, []byte, error) {
	mv, end, err := a.claim(args.VMID, partialPaused, partial, quarantined)
	if err != nil {
		return nil, nil, err
	}
	defer func() { a.settle(mv, end) }()
	if !args.Force && !mv.mt.Degraded() {
		return nil, nil, fmt.Errorf("vm %04d is not degraded (memory server reachable); use force to promote anyway", args.VMID)
	}
	pages, err := a.sendHome(args.VMID, mv, args.Dest)
	if err != nil {
		end = quarantined
		a.tel.quarantines.Inc()
		a.logf("agent %s: vm %04d QUARANTINED: forced promotion to %s failed: %v",
			a.Name, args.VMID, args.Dest, err)
		return nil, nil, fmt.Errorf("vm %04d quarantined: promotion to owner failed: %w", args.VMID, err)
	}
	end = gone
	a.tel.promotions.Inc()
	a.logf("agent %s: force-promoted degraded vm %04d home to %s (%d dirty pages)",
		a.Name, args.VMID, args.Dest, pages)
	return nil, nil, nil
}

func (a *Agent) handleSuspend(struct{}, []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, mv := range a.vms {
		if slices.Contains(running, mv.phase) {
			return nil, nil, fmt.Errorf("cannot suspend: vm %04d still runs here", id)
		}
	}
	a.suspended = true
	a.tel.suspended.Set(1)
	a.logf("agent %s: host suspended (memory server keeps serving)", a.Name)
	return nil, nil, nil
}

func (a *Agent) handleWake(struct{}, []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.suspended = false
	a.tel.suspended.Set(0)
	a.logf("agent %s: host woken", a.Name)
	return nil, nil, nil
}

func (a *Agent) handleStats(struct{}, []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{Name: a.Name, Suspended: a.suspended, MemServer: a.mem.StatsSnapshot()}
	for id, mv := range a.vms {
		if mv.phase == staged {
			continue // not resident until it switches over
		}
		info := VMInfo{
			VMID:        id,
			Name:        mv.desc.Name,
			Alloc:       mv.desc.Alloc,
			Owner:       !mv.phase.partialVM(),
			Away:        mv.phase == away,
			Partial:     mv.phase.partialVM(),
			Quarantined: mv.phase == quarantined,
		}
		if mv.mt != nil {
			info.Faults = mv.mt.Faults()
			info.Degraded = mv.mt.Degraded()
			info.Underreplicated = mv.mt.Underreplicated()
			rs := mv.mt.Resilience()
			info.Retries = rs.Retries
			info.Reconnects = rs.Reconnects
		}
		st.VMs = append(st.VMs, info)
	}
	return st, nil, nil
}
