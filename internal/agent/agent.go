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
	"encoding/base64"
	"encoding/json"
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

	// migrating marks an in-flight live migration; paused marks its
	// stop-and-copy phase, during which guest writes are refused.
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

// peer returns (caching) an RPC client to another agent.
func (a *Agent) peer(addr string) (*wire.Client, error) {
	a.peersMu.Lock()
	defer a.peersMu.Unlock()
	if c, ok := a.peers[addr]; ok {
		return c, nil
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	a.peers[addr] = c
	return c, nil
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

// PageArgs addresses one guest page, optionally with contents.
type PageArgs struct {
	VMID pagestore.VMID `json:"vmid"`
	PFN  pagestore.PFN  `json:"pfn"`
	Data string         `json:"data,omitempty"` // base64
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
	Backends []string `json:"backends,omitempty"`
	Replicas int      `json:"replicas,omitempty"`
	Desc     string   `json:"desc"` // base64 gob descriptor
	MemAddr  string   `json:"mem_addr"`
}

// receiveFullArgs carries the first round of a full migration. Staged
// marks a live (pre-copy) migration whose switch-over happens later via
// ActivateFull.
type receiveFullArgs struct {
	Desc     string `json:"desc"`
	Snapshot string `json:"snapshot"` // base64 compressed image
	Staged   bool   `json:"staged,omitempty"`
}

// receiveDirtyArgs carries reintegration dirty state to the owner.
type receiveDirtyArgs struct {
	VMID     pagestore.VMID `json:"vmid"`
	Snapshot string         `json:"snapshot"`
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
	h := func(name string, fn func(json.RawMessage) (any, error)) {
		a.rpc.Handle("Agent."+name, wire.Handler(fn))
	}
	h("CreateVM", a.handleCreateVM)
	h("WritePage", a.handleWritePage)
	h("ReadPage", a.handleReadPage)
	h("PartialMigrate", a.handlePartialMigrate)
	h("ReceivePartial", a.handleReceivePartial)
	h("FullMigrate", a.handleFullMigrate)
	h("ReceiveFull", a.handleReceiveFull)
	h("ReceiveFullDelta", a.handleReceiveFullDelta)
	h("ActivateFull", a.handleActivateFull)
	h("PostCopyMigrate", a.handlePostCopyMigrate)
	h("AdoptVM", a.handleAdoptVM)
	h("Reintegrate", a.handleReintegrate)
	h("RecoverDegraded", a.handleRecoverDegraded)
	h("ReceiveDirty", a.handleReceiveDirty)
	h("Suspend", a.handleSuspend)
	h("Wake", a.handleWake)
	h("Stats", a.handleStats)
	h("FabricAddBackend", a.handleFabricAddBackend)
	h("FabricRemoveBackend", a.handleFabricRemoveBackend)
	h("FabricStatus", a.handleFabricStatus)
}

func decode[T any](params json.RawMessage) (T, error) {
	var v T
	if err := json.Unmarshal(params, &v); err != nil {
		return v, fmt.Errorf("bad params: %w", err)
	}
	return v, nil
}

func (a *Agent) checkAwake() error {
	if a.suspended {
		return fmt.Errorf("agent %s: host is suspended", a.Name)
	}
	return nil
}

func (a *Agent) handleCreateVM(params json.RawMessage) (any, error) {
	args, err := decode[CreateVMArgs](params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, err
	}
	if _, ok := a.vms[args.VMID]; ok {
		return nil, fmt.Errorf("vm %04d already exists", args.VMID)
	}
	if args.Alloc <= 0 {
		return nil, fmt.Errorf("vm %04d: invalid allocation %d", args.VMID, args.Alloc)
	}
	desc := hypervisor.NewDescriptor(args.VMID, args.Name, args.Alloc, args.VCPUs)
	desc.DiskImagePath = args.Disk
	a.vms[args.VMID] = &managedVM{
		desc:  desc,
		image: pagestore.NewImage(args.Alloc),
		owner: true,
	}
	a.logf("agent %s: created vm %04d (%v)", a.Name, args.VMID, args.Alloc)
	return nil, nil
}

func (a *Agent) handleWritePage(params json.RawMessage) (any, error) {
	args, err := decode[PageArgs](params)
	if err != nil {
		return nil, err
	}
	data, err := base64.StdEncoding.DecodeString(args.Data)
	if err != nil {
		return nil, fmt.Errorf("bad page data: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, err
	}
	mv, ok := a.vms[args.VMID]
	if !ok {
		return nil, fmt.Errorf("unknown vm %04d", args.VMID)
	}
	if mv.paused {
		return nil, fmt.Errorf("vm %04d is paused for migration switch-over", args.VMID)
	}
	switch {
	case mv.pvm != nil:
		return nil, mv.pvm.Write(args.PFN, data)
	case mv.image != nil && !mv.away:
		return nil, mv.image.Write(args.PFN, data)
	default:
		return nil, fmt.Errorf("vm %04d is not running here", args.VMID)
	}
}

func (a *Agent) handleReadPage(params json.RawMessage) (any, error) {
	args, err := decode[PageArgs](params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, err
	}
	mv, ok := a.vms[args.VMID]
	if !ok {
		return nil, fmt.Errorf("unknown vm %04d", args.VMID)
	}
	var page []byte
	switch {
	case mv.pvm != nil:
		page, err = mv.pvm.Read(args.PFN)
	case mv.image != nil && !mv.away:
		page, err = mv.image.Read(args.PFN)
	default:
		return nil, fmt.Errorf("vm %04d is not running here", args.VMID)
	}
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.EncodeToString(page), nil
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

// uploadImage ships a full snapshot to the VM's memory backend: the
// shard fabric when the transport is sharded, otherwise chunked
// streaming over UploadStreams concurrent connections when > 1, else
// the host-local (SAS) install. Every path swaps the image in
// atomically.
func (a *Agent) uploadImage(id pagestore.VMID, alloc units.Bytes, snap []byte) error {
	streams := a.uploadStreams()
	if streams <= 1 && !a.sharded() {
		return a.mem.InstallImage(id, alloc, snap)
	}
	conn, err := a.uploadConn()
	if err != nil {
		return err
	}
	return conn.StreamImage(id, alloc, snap, memserver.PutOptions{Streams: streams})
}

// uploadDiff ships a differential snapshot the same way uploadImage ships
// full ones.
func (a *Agent) uploadDiff(id pagestore.VMID, snap []byte) error {
	streams := a.uploadStreams()
	if streams <= 1 && !a.sharded() {
		return a.mem.ApplyDiff(id, snap)
	}
	conn, err := a.uploadConn()
	if err != nil {
		return err
	}
	return conn.StreamDiff(id, snap, memserver.PutOptions{Streams: streams})
}

// handlePartialMigrate implements the source side of §4.2 partial
// migration: suspend the VM, upload its memory to the host's memory
// server (differential when possible), and push the descriptor to the
// destination agent.
func (a *Agent) handlePartialMigrate(params json.RawMessage) (any, error) {
	args, err := decode[MigrateArgs](params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if err := a.checkAwake(); err != nil {
		a.mu.Unlock()
		return nil, err
	}
	mv, ok := a.vms[args.VMID]
	if !ok || !mv.owner || mv.away || mv.image == nil {
		a.mu.Unlock()
		return nil, fmt.Errorf("vm %04d is not a resident owned full VM", args.VMID)
	}

	// Upload memory to the memory server: full image the first time,
	// only dirty pages afterwards (§4.3 differential upload). The encode
	// fans out across UploadStreams shards (byte-identical to serial).
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
		return nil, err
	}
	epoch := mv.image.NextEpoch()
	wasUploaded := mv.uploaded
	desc := *mv.desc
	desc.MemServerAddr = a.memAddr.String()
	a.mu.Unlock()

	// Ship the snapshot to the local memory server: chunked streaming
	// over concurrent connections when UploadStreams > 1, else the
	// host-local (SAS) path. Either way the image swaps in atomically.
	if wasUploaded {
		err = a.uploadDiff(args.VMID, snap)
	} else {
		err = a.uploadImage(args.VMID, desc.Alloc, snap)
	}
	if err != nil {
		return nil, err
	}

	// Push the descriptor to the destination.
	enc, err := desc.Encode()
	if err != nil {
		return nil, err
	}
	peer, err := a.peer(args.Dest)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	handoff := receivePartialArgs{
		Desc:     base64.StdEncoding.EncodeToString(enc),
		MemAddr:  a.memAddr.String(),
		Backends: append([]string(nil), a.transport.Backends...),
		Replicas: a.transport.Replicas,
	}
	a.mu.Unlock()
	if err := peer.Call("Agent.ReceivePartial", handoff, nil); err != nil {
		return nil, err
	}

	a.mu.Lock()
	mv.away = true
	mv.uploaded = true
	mv.uploadedEpoch = epoch
	a.mu.Unlock()
	a.tel.migrations("partial").Inc()
	a.logf("agent %s: partial migrated vm %04d to %s (%d pages uploaded)",
		a.Name, args.VMID, args.Dest, pages)
	return nil, nil
}

// handleReceivePartial implements the destination side: create a partial
// VM whose faults are serviced by a memtap talking to the source's memory
// server.
func (a *Agent) handleReceivePartial(params json.RawMessage) (any, error) {
	args, err := decode[receivePartialArgs](params)
	if err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(args.Desc)
	if err != nil {
		return nil, err
	}
	desc, err := hypervisor.DecodeDescriptor(raw)
	if err != nil {
		return nil, err
	}
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
		return nil, err
	}
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		mt.Close()
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		mt.Close()
		return nil, err
	}
	if _, ok := a.vms[desc.VMID]; ok {
		mt.Close()
		return nil, fmt.Errorf("vm %04d already resident", desc.VMID)
	}
	a.vms[desc.VMID] = &managedVM{desc: desc, pvm: pvm, mt: mt}
	a.logf("agent %s: received partial vm %04d (pages from %s)", a.Name, desc.VMID, args.MemAddr)
	return nil, nil
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
// the first round copies every page while the VM keeps running (and
// dirtying memory); subsequent rounds copy only pages dirtied during the
// previous round; when the dirty set is small the VM is stopped, the
// remainder transferred, and ownership switches to the destination. The
// source then frees everything including memory-server state.
func (a *Agent) handleFullMigrate(params json.RawMessage) (any, error) {
	args, err := decode[MigrateArgs](params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if err := a.checkAwake(); err != nil {
		a.mu.Unlock()
		return nil, err
	}
	mv, ok := a.vms[args.VMID]
	if !ok || !mv.owner || mv.away || mv.image == nil {
		a.mu.Unlock()
		return nil, fmt.Errorf("vm %04d is not a resident owned full VM", args.VMID)
	}
	if mv.migrating {
		a.mu.Unlock()
		return nil, fmt.Errorf("vm %04d is already migrating", args.VMID)
	}
	mv.migrating = true
	desc := *mv.desc
	epoch := mv.image.NextEpoch()
	snap, _, err := pagestore.EncodeAllParallel(mv.image, a.transport.UploadStreams)
	a.mu.Unlock()
	if err != nil {
		a.abortMigration(args.VMID)
		return nil, err
	}

	enc, err := desc.Encode()
	if err != nil {
		a.abortMigration(args.VMID)
		return nil, err
	}
	peer, err := a.peer(args.Dest)
	if err != nil {
		a.abortMigration(args.VMID)
		return nil, err
	}
	// Round 1: the full image, VM still running here.
	if err := peer.Call("Agent.ReceiveFull", receiveFullArgs{
		Desc:     base64.StdEncoding.EncodeToString(enc),
		Snapshot: base64.StdEncoding.EncodeToString(snap),
		Staged:   true,
	}, nil); err != nil {
		a.abortMigration(args.VMID)
		return nil, err
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
			a.abortMigration(args.VMID)
			return nil, err
		}
		if err := peer.Call("Agent.ReceiveFullDelta", receiveDirtyArgs{
			VMID:     args.VMID,
			Snapshot: base64.StdEncoding.EncodeToString(delta),
		}, nil); err != nil {
			a.abortMigration(args.VMID)
			return nil, err
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
		a.abortMigration(args.VMID)
		return nil, err
	}
	if err := peer.Call("Agent.ActivateFull", receiveDirtyArgs{
		VMID:     args.VMID,
		Snapshot: base64.StdEncoding.EncodeToString(lastDelta),
	}, nil); err != nil {
		a.abortMigration(args.VMID)
		return nil, err
	}

	// Free all source resources, including any memory-server image.
	a.mu.Lock()
	delete(a.vms, args.VMID)
	a.mu.Unlock()
	a.deleteImage(args.VMID)
	a.tel.migrations("full_live").Inc()
	a.logf("agent %s: live migrated vm %04d to %s (%d pre-copy rounds, %d stop-and-copy pages)",
		a.Name, args.VMID, args.Dest, rounds+1, len(final))
	return nil, nil
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
func (a *Agent) handlePostCopyMigrate(params json.RawMessage) (any, error) {
	args, err := decode[MigrateArgs](params)
	if err != nil {
		return nil, err
	}
	// Phase 1: exactly a partial migration — suspend, upload, push the
	// descriptor, resume at the destination.
	if _, err := a.handlePartialMigrate(params); err != nil {
		return nil, err
	}
	// Phase 2: the destination pulls all remaining memory and adopts the
	// VM.
	peer, err := a.peer(args.Dest)
	if err != nil {
		return nil, err
	}
	if err := peer.Call("Agent.AdoptVM", PageArgs{VMID: args.VMID}, nil); err != nil {
		return nil, fmt.Errorf("post-copy adopt failed (VM keeps running as partial at %s): %w",
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
	return nil, nil
}

// handleAdoptVM completes a post-copy migration on the destination: it
// prefetches every absent page of the resident partial VM and converts it
// into an owned full VM.
func (a *Agent) handleAdoptVM(params json.RawMessage) (any, error) {
	args, err := decode[PageArgs](params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	mv, ok := a.vms[args.VMID]
	if !ok || mv.pvm == nil {
		a.mu.Unlock()
		return nil, fmt.Errorf("vm %04d is not a partial VM here", args.VMID)
	}
	pvm, mt := mv.pvm, mv.mt
	a.mu.Unlock()

	// The active push of post-copy: stream all remaining pages in
	// batches while the VM keeps executing.
	n, err := mt.PrefetchRemaining(pvm, 1024)
	if err != nil {
		return nil, err
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
	return nil, nil
}

// abortMigration clears the migration flags after a failed live
// migration; the VM keeps running at the source.
func (a *Agent) abortMigration(id pagestore.VMID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if mv, ok := a.vms[id]; ok {
		mv.migrating = false
		mv.paused = false
	}
}

func (a *Agent) handleReceiveFull(params json.RawMessage) (any, error) {
	args, err := decode[receiveFullArgs](params)
	if err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(args.Desc)
	if err != nil {
		return nil, err
	}
	desc, err := hypervisor.DecodeDescriptor(raw)
	if err != nil {
		return nil, err
	}
	snap, err := base64.StdEncoding.DecodeString(args.Snapshot)
	if err != nil {
		return nil, err
	}
	im := pagestore.NewImage(desc.Alloc)
	if err := pagestore.ApplySnapshot(im, snap); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, err
	}
	if _, ok := a.vms[desc.VMID]; ok {
		return nil, fmt.Errorf("vm %04d already resident", desc.VMID)
	}
	if args.Staged {
		// First pre-copy round: hold the image until ActivateFull.
		a.staged[desc.VMID] = &stagedVM{desc: desc, image: im}
		a.logf("agent %s: staging inbound live migration of vm %04d", a.Name, desc.VMID)
		return nil, nil
	}
	a.vms[desc.VMID] = &managedVM{desc: desc, image: im, owner: true}
	a.logf("agent %s: received full vm %04d", a.Name, desc.VMID)
	return nil, nil
}

// handleReceiveFullDelta applies one iterative pre-copy round to a staged
// inbound migration.
func (a *Agent) handleReceiveFullDelta(params json.RawMessage) (any, error) {
	args, err := decode[receiveDirtyArgs](params)
	if err != nil {
		return nil, err
	}
	snap, err := base64.StdEncoding.DecodeString(args.Snapshot)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	sv, ok := a.staged[args.VMID]
	if !ok {
		return nil, fmt.Errorf("vm %04d has no staged migration", args.VMID)
	}
	return nil, pagestore.ApplySnapshot(sv.image, snap)
}

// handleActivateFull applies the stop-and-copy dirty set and switches the
// staged VM into execution here; this agent becomes the owner (§4.2).
func (a *Agent) handleActivateFull(params json.RawMessage) (any, error) {
	args, err := decode[receiveDirtyArgs](params)
	if err != nil {
		return nil, err
	}
	snap, err := base64.StdEncoding.DecodeString(args.Snapshot)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	sv, ok := a.staged[args.VMID]
	if !ok {
		return nil, fmt.Errorf("vm %04d has no staged migration", args.VMID)
	}
	if err := pagestore.ApplySnapshot(sv.image, snap); err != nil {
		return nil, err
	}
	delete(a.staged, args.VMID)
	a.vms[args.VMID] = &managedVM{desc: sv.desc, image: sv.image, owner: true}
	a.logf("agent %s: vm %04d switched over and resumed here", a.Name, args.VMID)
	return nil, nil
}

// handleReintegrate implements §4.2 reintegration, executed on the
// consolidation host: push only the partial VM's dirty state back to the
// owner, which merges it with the retained full image and resumes the VM.
func (a *Agent) handleReintegrate(params json.RawMessage) (any, error) {
	args, err := decode[MigrateArgs](params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if err := a.checkAwake(); err != nil {
		a.mu.Unlock()
		return nil, err
	}
	mv, ok := a.vms[args.VMID]
	if !ok || mv.pvm == nil {
		a.mu.Unlock()
		return nil, fmt.Errorf("vm %04d is not a partial VM here", args.VMID)
	}
	// Only pages the partial VM wrote locally travel home; faulted-in
	// pages already match the owner's retained DRAM copy (§4.2).
	snap, pages, err := mv.pvm.DirtySnapshotParallel(a.transport.UploadStreams)
	if err != nil {
		a.mu.Unlock()
		return nil, err
	}
	a.mu.Unlock()

	peer, err := a.peer(args.Dest)
	if err != nil {
		return nil, err
	}
	if err := peer.Call("Agent.ReceiveDirty", receiveDirtyArgs{
		VMID:     args.VMID,
		Snapshot: base64.StdEncoding.EncodeToString(snap),
	}, nil); err != nil {
		return nil, err
	}

	a.mu.Lock()
	if mv.mt != nil {
		mv.mt.Close()
	}
	delete(a.vms, args.VMID)
	a.mu.Unlock()
	a.tel.migrations("reintegrate").Inc()
	a.logf("agent %s: reintegrated vm %04d to %s (%d dirty pages)", a.Name, args.VMID, args.Dest, pages)
	return nil, nil
}

func (a *Agent) handleReceiveDirty(params json.RawMessage) (any, error) {
	args, err := decode[receiveDirtyArgs](params)
	if err != nil {
		return nil, err
	}
	snap, err := base64.StdEncoding.DecodeString(args.Snapshot)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkAwake(); err != nil {
		return nil, err
	}
	mv, ok := a.vms[args.VMID]
	if !ok || !mv.owner || !mv.away {
		return nil, fmt.Errorf("vm %04d is not an away VM owned here", args.VMID)
	}
	if err := pagestore.ApplySnapshot(mv.image, snap); err != nil {
		return nil, err
	}
	mv.away = false
	a.logf("agent %s: vm %04d reintegrated and resumed", a.Name, args.VMID)
	return nil, nil
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
func (a *Agent) handleRecoverDegraded(params json.RawMessage) (any, error) {
	args, err := decode[RecoverArgs](params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	mv, ok := a.vms[args.VMID]
	if !ok || mv.pvm == nil {
		a.mu.Unlock()
		return nil, fmt.Errorf("vm %04d is not a partial VM here", args.VMID)
	}
	if !args.Force && (mv.mt == nil || !mv.mt.Degraded()) {
		a.mu.Unlock()
		return nil, fmt.Errorf("vm %04d is not degraded (memory server reachable); use force to promote anyway", args.VMID)
	}
	snap, pages, err := mv.pvm.DirtySnapshot()
	if err != nil {
		mv.quarantined = true
		a.mu.Unlock()
		a.tel.quarantines.Inc()
		return nil, fmt.Errorf("vm %04d quarantined: dirty snapshot failed: %w", args.VMID, err)
	}
	a.mu.Unlock()

	push := func() error {
		peer, err := a.peer(args.Dest)
		if err != nil {
			return err
		}
		return peer.Call("Agent.ReceiveDirty", receiveDirtyArgs{
			VMID:     args.VMID,
			Snapshot: base64.StdEncoding.EncodeToString(snap),
		}, nil)
	}
	if err := push(); err != nil {
		a.mu.Lock()
		mv.quarantined = true
		a.mu.Unlock()
		a.tel.quarantines.Inc()
		a.logf("agent %s: vm %04d QUARANTINED: forced promotion to %s failed: %v",
			a.Name, args.VMID, args.Dest, err)
		return nil, fmt.Errorf("vm %04d quarantined: promotion to owner failed: %w", args.VMID, err)
	}

	a.mu.Lock()
	if mv.mt != nil {
		mv.mt.Close()
	}
	delete(a.vms, args.VMID)
	a.mu.Unlock()
	a.tel.promotions.Inc()
	a.logf("agent %s: force-promoted degraded vm %04d home to %s (%d dirty pages)",
		a.Name, args.VMID, args.Dest, pages)
	return nil, nil
}

func (a *Agent) handleSuspend(json.RawMessage) (any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, mv := range a.vms {
		if mv.pvm != nil || (mv.image != nil && !mv.away) {
			return nil, fmt.Errorf("cannot suspend: vm %04d still runs here", id)
		}
	}
	a.suspended = true
	a.tel.suspended.Set(1)
	a.logf("agent %s: host suspended (memory server keeps serving)", a.Name)
	return nil, nil
}

func (a *Agent) handleWake(json.RawMessage) (any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.suspended = false
	a.tel.suspended.Set(0)
	a.logf("agent %s: host woken", a.Name)
	return nil, nil
}

func (a *Agent) handleStats(json.RawMessage) (any, error) {
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
	return st, nil
}
