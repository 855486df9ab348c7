// Package agent implements the Oasis host agent (§4.2): the user-level
// process on each host that owns its VMs, performs partial and full
// migrations and reintegration against other agents, uploads memory
// images to the host's memory server, and reports statistics to the
// cluster manager. A thin Manager (manager.go) drives a set of agents the
// way §4.1 describes.
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
	"sync"

	"oasis/internal/flagbind"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
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
	desc *hypervisor.Descriptor

	// image is the full memory image when the VM runs here in full, and
	// the retained DRAM copy while the VM is partially migrated away
	// (S3 keeps memory in self-refresh, which is why reintegration only
	// needs dirty pages).
	image *pagestore.Image

	// pvm/mt are set when the VM runs here as a partial VM.
	pvm *hypervisor.PartialVM
	mt  *memtap.Memtap

	// owner reports whether this agent owns the VM (its home).
	owner bool
	// away reports whether an owned VM currently runs elsewhere.
	away bool
	// uploadedEpoch is the image epoch as of the last memory-server
	// upload; it enables differential uploads.
	uploaded      bool
	uploadedEpoch uint64

	// migrating marks an in-flight hand-off of this VM to a peer; a second
	// one is refused. paused marks the part of it, from the snapshot that
	// decides what the peer receives onwards, during which guest writes
	// are refused (§4.2: a write acknowledged after that snapshot would
	// exist nowhere once the peer takes over) — all of it except pre-copy
	// rounds. Both are cleared when the hand-off returns: by then away or
	// the VM's deletion has taken over, or it failed and the VM runs on.
	migrating bool
	paused    bool

	// quarantined marks a degraded partial VM whose forced promotion
	// home also failed: it is left resident but flagged so operators
	// (and the cluster manager) can see it needs manual recovery.
	quarantined bool
}

// stagedVM is an inbound live migration that has not switched over yet.
type stagedVM struct {
	desc  *hypervisor.Descriptor
	image *pagestore.Image
}

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
	staged    map[pagestore.VMID]*stagedVM
	suspended bool

	peersMu sync.Mutex
	peers   map[string]*wire.Client

	// transport tunes the page-transport layer (connection pool width,
	// pipelined prefetch depth) of every memtap this agent creates for
	// inbound partial VMs, and the upload stream count of the agent's own
	// detach path.
	transport TransportConfig

	// upPool is the lazily-dialed connection pool to this host's own
	// memory server, used for chunked streaming uploads when
	// transport.UploadStreams > 1 (the serial path installs host-locally
	// through a.mem instead). fabric is its sharded counterpart: the
	// lazily-dialed shard client over transport.Backends, used for both
	// upload shapes when the transport is sharded.
	upPoolMu sync.Mutex
	upPool   memserver.Conn
	fabric   *shard.Client

	tel *agentTel
}

// TransportConfig tunes the parallel page-transport layer an agent gives
// each inbound partial VM: PoolSize memory-server connections per memtap
// (1 keeps the serial client) and PrefetchStreams pipelined batches
// during partial→full conversion. UploadStreams tunes the detach
// direction — snapshot encoding fans out over that many shards and
// uploads ship as chunks over that many concurrent streams to the
// memory server (<= 1 keeps the serial encode + one-shot upload). Zero
// fields select the serial defaults, preserving the pre-pooling
// behaviour.
//
// It is the shared flagbind.Transport: when Backends is non-empty the
// agent detaches to (and hands partial VMs pages from) a sharded,
// replicated memory-server fabric instead of its own host-local daemon,
// with Replicas copies of every page range.
type TransportConfig = flagbind.Transport

// SetTransport configures the page-transport layer for partial VMs
// received after the call; it does not retrofit memtaps already running.
func (a *Agent) SetTransport(tc TransportConfig) {
	a.mu.Lock()
	a.transport = tc
	a.mu.Unlock()
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
		vms:    make(map[pagestore.VMID]*managedVM),
		staged: make(map[pagestore.VMID]*stagedVM),
		peers:  make(map[string]*wire.Client),
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
	a.mem = memserver.NewServer(a.secret, a.logf)
	maddr, err := a.mem.Listen(memListenAddr)
	if err != nil {
		a.rpc.Close()
		return err
	}
	a.memAddr = maddr
	return nil
}

// Close shuts down the agent, its memory server and peer connections.
func (a *Agent) Close() error {
	a.peersMu.Lock()
	for _, c := range a.peers {
		c.Close()
	}
	a.peers = map[string]*wire.Client{}
	a.peersMu.Unlock()
	a.upPoolMu.Lock()
	if a.upPool != nil {
		a.upPool.Close()
		a.upPool = nil
	}
	if a.fabric != nil {
		a.fabric.Close()
		a.fabric = nil
	}
	a.upPoolMu.Unlock()
	var err error
	if a.rpc != nil {
		err = a.rpc.Close()
	}
	if a.mem != nil {
		if e := a.mem.Close(); err == nil {
			err = e
		}
	}
	return err
}

// Addr returns the agent's RPC address.
func (a *Agent) Addr() string { return a.rpcAddr.String() }

// MemServerAddr returns the host's memory-server address.
func (a *Agent) MemServerAddr() string { return a.memAddr.String() }

// callPeer calls method on the agent at addr over a connection dialed on
// first use and kept (the client redials after a transport failure).
func (a *Agent) callPeer(addr, method string, args any, payload []byte) error {
	a.peersMu.Lock()
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
// rather than the single server at MemAddr.
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
	wire.Handle(a.rpc, "Agent.ReceiveFullDelta", a.receiveSnapshot(chunkMore))
	wire.Handle(a.rpc, "Agent.ActivateFull", a.receiveSnapshot(chunkActivates))
	wire.Handle(a.rpc, "Agent.ReceiveDirty", a.receiveSnapshot(chunkReturns))
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

func (a *Agent) checkAwake() error {
	if a.suspended {
		return fmt.Errorf("agent %s: host is suspended", a.Name)
	}
	return nil
}

func (a *Agent) handleCreateVM(args CreateVMArgs, _ []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, nil, err
	}
	if _, ok := a.vms[args.VMID]; ok {
		return nil, nil, fmt.Errorf("vm %04d already exists", args.VMID)
	}
	if args.Alloc <= 0 {
		return nil, nil, fmt.Errorf("vm %04d: invalid allocation %d", args.VMID, args.Alloc)
	}
	desc := hypervisor.NewDescriptor(args.VMID, args.Name, args.Alloc, args.VCPUs)
	desc.DiskImagePath = args.Disk
	a.vms[args.VMID] = &managedVM{
		desc:  desc,
		image: pagestore.NewImage(args.Alloc),
		owner: true,
	}
	a.logf("agent %s: created vm %04d (%v)", a.Name, args.VMID, args.Alloc)
	return nil, nil, nil
}

// running returns the VM if its guest runs on this host, as a partial VM
// or in full. Called with a.mu held.
func (a *Agent) running(id pagestore.VMID) (*managedVM, error) {
	if err := a.checkAwake(); err != nil {
		return nil, err
	}
	mv, ok := a.vms[id]
	if !ok {
		return nil, fmt.Errorf("unknown vm %04d", id)
	}
	if mv.pvm == nil && (mv.image == nil || mv.away) {
		return nil, fmt.Errorf("vm %04d is not running here", id)
	}
	return mv, nil
}

// handleWritePage stores the payload as the page's contents (the image
// copies it). A VM that is paused for a hand-off refuses the write.
func (a *Agent) handleWritePage(args PageArgs, data []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	mv, err := a.running(args.VMID)
	switch {
	case err != nil:
		return nil, nil, err
	case mv.paused:
		return nil, nil, fmt.Errorf("vm %04d is paused for migration switch-over", args.VMID)
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
	mv, err := a.running(args.VMID)
	switch {
	case err != nil:
	case mv.pvm != nil:
		page, err = mv.pvm.Read(args.PFN)
	default:
		page, err = mv.image.Read(args.PFN)
	}
	return nil, page, err
}

// uploadStreams returns the configured detach fan-out (>= 1).
func (a *Agent) uploadStreams() int {
	a.mu.Lock()
	w := a.transport.UploadStreams
	a.mu.Unlock()
	return max(w, 1)
}

// uploadConn returns, dialing on first use, the client detach uploads
// stream through: the shard fabric over transport.Backends when the
// transport is sharded, else UploadStreams lanes to this host's own
// memory server.
func (a *Agent) uploadConn() (memserver.Conn, error) {
	a.mu.Lock()
	tc := a.transport
	tc.Backends = append([]string(nil), tc.Backends...)
	a.mu.Unlock()
	a.upPoolMu.Lock()
	defer a.upPoolMu.Unlock()
	if tc.Sharded() {
		if a.fabric == nil {
			conn, err := shard.Connect(shard.Target{
				Backends:   tc.Backends,
				Replicas:   tc.Replicas,
				Lanes:      tc.PoolSize,
				Resilience: &memserver.ResilientConfig{Name: "agent-fabric"},
			}, a.secret)
			if err != nil {
				return nil, err
			}
			a.fabric = conn.(*shard.Client)
		}
		return a.fabric, nil
	}
	if a.upPool == nil {
		conn, err := shard.Connect(shard.Target{
			Addr:       a.memAddr.String(),
			Lanes:      tc.UploadStreams,
			Resilience: &memserver.ResilientConfig{Name: "agent-upload"},
		}, a.secret)
		if err != nil {
			return nil, err
		}
		a.upPool = conn
	}
	return a.upPool, nil
}

// sharded reports whether detach uploads target a shard fabric instead
// of the host's own memory server.
func (a *Agent) sharded() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.transport.Sharded()
}

// deleteImage frees a VM's memory-server image wherever the transport
// put it: every fabric backend when sharded, else the host-local store.
// Cleanup is best-effort — a missing image is not an error.
func (a *Agent) deleteImage(id pagestore.VMID) {
	if a.sharded() {
		if f, err := a.uploadConn(); err == nil {
			f.Delete(id) //nolint:errcheck // best-effort cleanup
		}
		return
	}
	a.mem.Store().Delete(id)
}

// upload ships a snapshot — the full image, or a diff against the image
// already there — to the VM's memory backend: the shard fabric when the
// transport is sharded, otherwise chunked streaming over UploadStreams
// concurrent connections when > 1, else the host-local (SAS) install.
// Every path swaps the result in atomically.
func (a *Agent) upload(id pagestore.VMID, alloc units.Bytes, snap []byte, diff bool) error {
	streams := a.uploadStreams()
	if streams <= 1 && !a.sharded() {
		if diff {
			return a.mem.ApplyDiff(id, snap)
		}
		return a.mem.InstallImage(id, alloc, snap)
	}
	conn, err := a.uploadConn()
	if err != nil {
		return err
	}
	if diff {
		return conn.StreamDiff(id, snap, memserver.PutOptions{Streams: streams})
	}
	return conn.StreamImage(id, alloc, snap, memserver.PutOptions{Streams: streams})
}

// claim's two choices, by name.
const (
	fullVM, partialVM = false, true
	live, stopped     = false, true
)

// claim finds the VM a hand-off is about — a partial VM running here, or
// else a full VM this agent owns and runs — and marks it migrating, and
// paused too when pause is set (see managedVM.migrating). On success the
// caller defers a.release(mv).
func (a *Agent) claim(id pagestore.VMID, partial, pause bool) (*managedVM, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, err
	}
	mv, ok := a.vms[id]
	switch {
	case partial && (!ok || mv.pvm == nil):
		return nil, fmt.Errorf("vm %04d is not a partial VM here", id)
	case !partial && (!ok || !mv.owner || mv.away || mv.image == nil):
		return nil, fmt.Errorf("vm %04d is not a resident owned full VM", id)
	case mv.migrating:
		return nil, fmt.Errorf("vm %04d is already migrating", id)
	}
	mv.migrating, mv.paused = true, pause
	return mv, nil
}

// release ends a hand-off, however it went: a VM that is still here runs
// (and accepts writes) again.
func (a *Agent) release(mv *managedVM) {
	a.mu.Lock()
	mv.migrating, mv.paused = false, false
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

// What the call carrying a snapshot chunk completes at the receiver.
const (
	chunkMore      = iota // nothing yet: more chunks follow
	chunkActivates        // a staged live migration: the VM switches over and runs here
	chunkReturns          // a reintegration: the away VM runs at home again
)

// receiveSnapshot is the apply step under every inbound snapshot push:
// the chunk lands in the image the VM's inbound state belongs to — the
// retained copy of an owned VM that is away, or a staged live migration's
// image — and the call that completes the push flips that VM's state.
func (a *Agent) receiveSnapshot(completes int) func(vmArgs, []byte) (any, []byte, error) {
	return func(args vmArgs, chunk []byte) (any, []byte, error) {
		a.mu.Lock()
		defer a.mu.Unlock()
		if err := a.checkAwake(); err != nil {
			return nil, nil, err
		}
		mv, sv := a.vms[args.VMID], a.staged[args.VMID]
		var im *pagestore.Image
		switch {
		case completes != chunkActivates && mv != nil && mv.owner && mv.away:
			im = mv.image
		case completes != chunkReturns && mv == nil && sv != nil:
			im = sv.image
		case completes == chunkReturns:
			return nil, nil, fmt.Errorf("vm %04d is not an away VM owned here", args.VMID)
		default:
			return nil, nil, fmt.Errorf("vm %04d has no staged migration", args.VMID)
		}
		if err := pagestore.ApplySnapshot(im, chunk); err != nil {
			return nil, nil, err
		}
		switch completes {
		case chunkReturns:
			mv.away = false
			a.logf("agent %s: vm %04d reintegrated and resumed", a.Name, args.VMID)
		case chunkActivates:
			delete(a.staged, args.VMID)
			a.vms[args.VMID] = &managedVM{desc: sv.desc, image: sv.image, owner: true}
			a.logf("agent %s: vm %04d switched over and resumed here", a.Name, args.VMID)
		}
		return nil, nil, nil
	}
}

// handlePartialMigrate implements the source side of §4.2 partial
// migration: suspend the VM, upload its memory to the host's memory
// server (differential when possible), and push the descriptor to the
// destination agent.
func (a *Agent) handlePartialMigrate(args MigrateArgs, _ []byte) (any, []byte, error) {
	mv, err := a.claim(args.VMID, fullVM, stopped)
	if err != nil {
		return nil, nil, err
	}
	defer a.release(mv)

	// Upload memory to the memory server: full image the first time,
	// only dirty pages afterwards (§4.3 differential upload). The encode
	// fans out across UploadStreams shards (byte-identical to serial).
	a.mu.Lock()
	workers := a.transport.UploadStreams
	var snap []byte
	var pages int
	if mv.uploaded {
		snap, pages, err = pagestore.EncodeDirtySinceParallel(mv.image, mv.uploadedEpoch, workers)
	} else if a.transport.CompressDict {
		// Per-VM dictionary mode: sample the image for a dictionary page
		// and encode against it where that wins. BuildDict returns nil
		// when nothing beats plain LZF, and EncodeAllDict then emits the
		// plain v1 snapshot — the knob can only shrink the upload.
		snap, pages, err = pagestore.EncodeAllDict(mv.image, pagestore.BuildDict(mv.image), workers)
	} else {
		snap, pages, err = pagestore.EncodeAllParallel(mv.image, workers)
	}
	if err != nil {
		a.mu.Unlock()
		return nil, nil, err
	}
	epoch := mv.image.NextEpoch()
	wasUploaded := mv.uploaded
	handoff := receivePartialArgs{Desc: *mv.desc, MemAddr: a.memAddr.String()}
	handoff.Desc.MemServerAddr = handoff.MemAddr
	a.mu.Unlock()

	if err := a.upload(args.VMID, handoff.Desc.Alloc, snap, wasUploaded); err != nil {
		return nil, nil, err
	}

	// Push the descriptor to the destination, with the fabric membership
	// as it stands now that the upload has landed.
	a.mu.Lock()
	handoff.Backends = append([]string(nil), a.transport.Backends...)
	handoff.Replicas = a.transport.Replicas
	a.mu.Unlock()
	if err := a.callPeer(args.Dest, "Agent.ReceivePartial", handoff, nil); err != nil {
		return nil, nil, err
	}

	a.mu.Lock()
	mv.away = true
	mv.uploaded = true
	mv.uploadedEpoch = epoch
	a.mu.Unlock()
	a.tel.migrations("partial").Inc()
	a.logf("agent %s: partial migrated vm %04d to %s (%d pages uploaded)",
		a.Name, args.VMID, args.Dest, pages)
	return nil, nil, nil
}

// handleReceivePartial implements the destination side: create a partial
// VM whose faults are serviced by a memtap talking to the source's memory
// server.
func (a *Agent) handleReceivePartial(args receivePartialArgs, _ []byte) (any, []byte, error) {
	desc := &args.Desc
	a.mu.Lock()
	tc := a.transport
	a.mu.Unlock()
	mt, err := memtap.NewWithOptions(desc.VMID, args.MemAddr, a.secret, memtap.Options{
		PoolSize:        tc.PoolSize,
		PrefetchStreams: tc.PrefetchStreams,
		Backends:        args.Backends,
		Replicas:        args.Replicas,
	})
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
	if err := a.checkAwake(); err != nil {
		mt.Close()
		return nil, nil, err
	}
	if _, ok := a.vms[desc.VMID]; ok {
		mt.Close()
		return nil, nil, fmt.Errorf("vm %04d already resident", desc.VMID)
	}
	a.vms[desc.VMID] = &managedVM{desc: desc, pvm: pvm, mt: mt}
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
	mv, err := a.claim(args.VMID, fullVM, live)
	if err != nil {
		return nil, nil, err
	}
	defer a.release(mv)
	a.mu.Lock()
	desc := *mv.desc
	epoch := mv.image.NextEpoch()
	snap, _, err := pagestore.EncodeAllParallel(mv.image, a.transport.UploadStreams)
	a.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}

	// Round 1: the full image, VM still running here.
	if err := a.callPeer(args.Dest, "Agent.ReceiveFull", desc, nil); err != nil {
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
		delta, err := pagestore.EncodePagesParallel(mv.image, dirty, a.transport.UploadStreams)
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
	mv.paused = true
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
	a.mu.Lock()
	delete(a.vms, args.VMID)
	a.mu.Unlock()
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
	// Phase 1: exactly a partial migration — suspend, upload, push the
	// descriptor, resume at the destination.
	if _, _, err := a.handlePartialMigrate(args, nil); err != nil {
		return nil, nil, err
	}
	// Phase 2: the destination pulls all remaining memory and adopts the
	// VM.
	if err := a.callPeer(args.Dest, "Agent.AdoptVM", vmArgs{VMID: args.VMID}, nil); err != nil {
		return nil, nil, fmt.Errorf("post-copy adopt failed (VM keeps running as partial at %s): %w",
			args.Dest, err)
	}
	// Phase 3: free the source's copy and memory-server image (§4.2:
	// after full migration the destination owns the VM).
	a.mu.Lock()
	delete(a.vms, args.VMID)
	a.mu.Unlock()
	a.deleteImage(args.VMID)
	a.tel.migrations("post_copy").Inc()
	a.logf("agent %s: post-copy migrated vm %04d to %s", a.Name, args.VMID, args.Dest)
	return nil, nil, nil
}

// handleAdoptVM completes a post-copy migration on the destination: it
// prefetches every absent page of the resident partial VM and converts it
// into an owned full VM.
func (a *Agent) handleAdoptVM(args vmArgs, _ []byte) (any, []byte, error) {
	mv, err := a.claim(args.VMID, partialVM, live)
	if err != nil {
		return nil, nil, err
	}
	defer a.release(mv)
	pvm, mt := mv.pvm, mv.mt

	// The active push of post-copy: stream all remaining pages in
	// batches while the VM keeps executing.
	n, err := mt.PrefetchRemaining(pvm, 1024)
	if err != nil {
		return nil, nil, err
	}
	a.mu.Lock()
	mv.image = pvm.Image()
	mv.pvm = nil
	mv.owner = true
	mv.uploaded = false
	a.mu.Unlock()
	mt.Close()
	a.tel.migrations("adopt").Inc()
	a.logf("agent %s: adopted vm %04d after prefetching %d pages", a.Name, args.VMID, n)
	return nil, nil, nil
}

// handleReceiveFull opens an inbound live migration: an empty image is
// staged under the VM's descriptor, the pre-copy rounds fill it chunk by
// chunk (ReceiveFullDelta) and ActivateFull switches it over.
func (a *Agent) handleReceiveFull(desc hypervisor.Descriptor, _ []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, nil, err
	}
	if _, ok := a.vms[desc.VMID]; ok {
		return nil, nil, fmt.Errorf("vm %04d already resident", desc.VMID)
	}
	a.staged[desc.VMID] = &stagedVM{desc: &desc, image: pagestore.NewImage(desc.Alloc)}
	a.logf("agent %s: staging inbound live migration of vm %04d", a.Name, desc.VMID)
	return nil, nil, nil
}

// sendHome hands a claimed, paused partial VM back to its owner: only
// the pages it wrote here travel (faulted-in pages already match the
// owner's retained DRAM copy, §4.2); the owner merges them with that copy
// and resumes the VM, and then the memtap is closed and the VM dropped
// here. It returns the number of dirty pages pushed.
func (a *Agent) sendHome(id pagestore.VMID, mv *managedVM, owner string) (int, error) {
	a.mu.Lock()
	snap, pages, err := mv.pvm.DirtySnapshotParallel(a.transport.UploadStreams)
	a.mu.Unlock()
	if err == nil {
		err = a.pushSnapshot(owner, id, snap, "Agent.ReceiveDirty")
	}
	if err != nil {
		return 0, err
	}
	a.mu.Lock()
	if mv.mt != nil {
		mv.mt.Close()
	}
	delete(a.vms, id)
	a.mu.Unlock()
	return pages, nil
}

// handleReintegrate implements §4.2 reintegration, executed on the
// consolidation host: push only the partial VM's dirty state back to the
// owner.
func (a *Agent) handleReintegrate(args MigrateArgs, _ []byte) (any, []byte, error) {
	mv, err := a.claim(args.VMID, partialVM, stopped)
	if err != nil {
		return nil, nil, err
	}
	defer a.release(mv)
	pages, err := a.sendHome(args.VMID, mv, args.Dest)
	if err != nil {
		return nil, nil, err
	}
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
	mv, err := a.claim(args.VMID, partialVM, stopped)
	if err != nil {
		return nil, nil, err
	}
	defer a.release(mv)
	if !args.Force && (mv.mt == nil || !mv.mt.Degraded()) {
		return nil, nil, fmt.Errorf("vm %04d is not degraded (memory server reachable); use force to promote anyway", args.VMID)
	}
	pages, err := a.sendHome(args.VMID, mv, args.Dest)
	if err != nil {
		a.mu.Lock()
		mv.quarantined = true
		a.mu.Unlock()
		a.tel.quarantines.Inc()
		a.logf("agent %s: vm %04d QUARANTINED: forced promotion to %s failed: %v",
			a.Name, args.VMID, args.Dest, err)
		return nil, nil, fmt.Errorf("vm %04d quarantined: promotion to owner failed: %w", args.VMID, err)
	}
	a.tel.promotions.Inc()
	a.logf("agent %s: force-promoted degraded vm %04d home to %s (%d dirty pages)",
		a.Name, args.VMID, args.Dest, pages)
	return nil, nil, nil
}

func (a *Agent) handleSuspend(struct{}, []byte) (any, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, mv := range a.vms {
		if mv.pvm != nil || (mv.image != nil && !mv.away) {
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
		info := VMInfo{
			VMID:    id,
			Name:    mv.desc.Name,
			Alloc:   mv.desc.Alloc,
			Owner:   mv.owner,
			Away:    mv.away,
			Partial: mv.pvm != nil,
		}
		if mv.mt != nil {
			info.Faults = mv.mt.Faults()
			info.Degraded = mv.mt.Degraded()
			info.Underreplicated = mv.mt.Underreplicated()
			rs := mv.mt.Resilience()
			info.Retries = rs.Retries
			info.Reconnects = rs.Reconnects
		}
		info.Quarantined = mv.quarantined
		st.VMs = append(st.VMs, info)
	}
	return st, nil, nil
}
