package memserver

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Conn is the full client surface of the memory-server protocol: page
// reads (plain and staged), image/diff uploads (one-shot and streamed),
// lifecycle, and counters. Two types implement it: the ClientPool here
// (by embedding ops, the protocol written once) and the sharded fabric
// client in the shard subpackage. shard.Connect picks between them, which
// is what lets one call site scale from one self-healing connection to a
// replicated fabric purely through dial options. A page the reads return
// is the caller's to keep (see GetPage).
type Conn interface {
	GetPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error)
	GetPageStaged(id pagestore.VMID, pfn pagestore.PFN) (page []byte, wire, decompress time.Duration, err error)
	GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error)
	PutImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte) error
	PutDiff(id pagestore.VMID, snapshot []byte) error
	StreamImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte, opts PutOptions) error
	StreamDiff(id pagestore.VMID, snapshot []byte, opts PutOptions) error
	Delete(id pagestore.VMID) error
	SetServing(on bool) error
	Stats() (Stats, error)
	Close() error
}

var _ Conn = (*ClientPool)(nil)

// call is one request/response exchange of the protocol, described as
// data: what to send, what reply to expect, and how hard to try. The
// operations in this file build calls; the two exchangers (lane and
// ClientPool) carry them and never look at which operation a call is.
type call struct {
	op   string // operation name, for error messages
	req  byte   // request message type
	want byte   // reply message type a healthy server answers with

	// mutating is the retry class. Every operation is idempotent, so
	// retry is always safe; the class only sets the budget. Reads get
	// ResilientConfig.MaxRetries because a stranded partial VM has no
	// alternative. Mutating ops (a whole-snapshot PutImage or PutDiff,
	// Delete, SetServing) get the smaller MutatingRetries: their caller
	// holds the authoritative copy and can re-drive the operation, so
	// burning the fault window on retries only delays the degradation
	// decision. The frames of a staged upload (its chunks, PutCommit)
	// touch nothing live until the commit applies, so they ride the read
	// budget.
	mutating bool
	// mac asks for the session MAC trailer over the payload (upload
	// payloads; see proto.go).
	mac bool

	// The payload is prefix[:n] followed by segs. The prefix is the
	// op's fixed-size header, built by u32/u64 or appendPutHead; segs
	// point into the caller's buffers and reach the socket without a
	// copy.
	prefix [24]byte
	n      int
	segs   [2][]byte
}

func (c *call) u32(v uint32) {
	binary.BigEndian.PutUint32(c.prefix[c.n:], v)
	c.n += 4
}

func (c *call) u64(v uint64) {
	binary.BigEndian.PutUint64(c.prefix[c.n:], v)
	c.n += 8
}

// exchanger carries one call to a server and returns the reply payload.
// A msgError reply comes back as a remoteError; anything else that is
// not c.want is a transport fault. call travels by value so the hot
// paths (GetPage, putChunk) allocate nothing per exchange.
type exchanger interface {
	exchange(c call) ([]byte, error)
}

// ops is the memory-server protocol, each operation encoded and decoded
// exactly once over an exchanger. ClientPool embeds it over its lanes,
// and tests substitute an exchanger that records the calls.
type ops struct {
	x exchanger
	// put counts uploaded chunks under the owner's client label.
	put *putTel
}

// GetPage fetches one guest page, decompressing it. The page is the
// caller's to keep and is never written again: a compressed entry is
// decoded into a fresh page, a raw one stays where it arrived, in the
// reply buffer this exchange allocated. An all-zero page is the shared
// zero page, which belongs to no caller and must not be modified.
func (o ops) GetPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	page, _, _, err := o.GetPageStaged(id, pfn)
	return page, err
}

// GetPageStaged is GetPage plus the stage split the fault-path tracer
// records: wire is the time the request spent away (round trip, and any
// retries and lane queueing on the way), decompress the client-side page
// decode. Memtap prefers this so a /traces span can attribute fault
// latency to the network or the decompressor.
func (o ops) GetPageStaged(id pagestore.VMID, pfn pagestore.PFN) (page []byte, wire, decompress time.Duration, err error) {
	c := call{op: "GetPage", req: msgGetPage, want: msgPage}
	c.u32(uint32(id))
	c.u64(uint64(pfn))
	start := time.Now()
	reply, err := o.x.exchange(c)
	wire = time.Since(start)
	if err != nil {
		return nil, wire, 0, err
	}
	if len(reply) < 2 {
		return nil, wire, 0, errors.New("memserver: short page reply")
	}
	start = time.Now()
	page, err = pagestore.DecodePage(binary.BigEndian.Uint16(reply), reply[2:])
	decompress = time.Since(start)
	if err == nil {
		decompressSeconds.Observe(decompress.Seconds())
	}
	return page, wire, decompress, err
}

// GetPages fetches a batch of guest pages in one round trip, for
// prefetchers converting a partial VM into a full one (§4.4.4). The
// result maps each requested PFN to its decompressed contents. Each page
// is the caller's to keep and is never written again: a compressed entry
// is decoded into a fresh page and a raw one copied out of the reply, so
// a kept page does not pin the whole batch. All-zero pages are the shared
// zero page, which belongs to no caller and must not be modified.
func (o ops) GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	if len(pfns) == 0 {
		return map[pagestore.PFN][]byte{}, nil
	}
	c := call{op: "GetPages", req: msgGetPages, want: msgPages}
	c.segs[0] = encodeGetPagesRequest(id, pfns)
	reply, err := o.x.exchange(c)
	if err != nil {
		return nil, err
	}
	return parsePagesReply(reply)
}

// putChunk ships one self-contained snapshot chunk in an h.kind frame:
// a whole snapshot when h.uploadID is 0, else one chunk of a staged
// upload. The chunk's header and body segments go straight from the
// encoded snapshot to the socket, with the session MAC trailer: the hot
// path performs no allocations and no copies of page bytes.
func (o ops) putChunk(h putHead, chunk pagestore.ChunkRef) error {
	op := "PutDiff"
	if h.kind == msgPutImage {
		op = "PutImage"
	}
	c := call{op: op, req: h.kind, want: msgOK, mutating: h.uploadID == 0, mac: true}
	c.n = len(appendPutHead(c.prefix[:0], h))
	c.segs = [2][]byte{chunk.Pre, chunk.Body}
	_, err := o.x.exchange(c)
	return err
}

// PutCommit validates that all n chunks arrived and applies the upload
// atomically; until it succeeds the VM's previous image stays visible.
// The server remembers the last committed upload id per VM, so a Commit
// retried after a lost reply is acknowledged without re-applying.
func (o ops) PutCommit(id pagestore.VMID, uploadID uint64, n uint32) error {
	c := call{op: "PutCommit", req: msgPutCommit, want: msgOK}
	c.segs[0] = encodePutCommit(id, uploadID, n)
	_, err := o.x.exchange(c)
	return err
}

// Delete frees a VM's image (after full migration the source agent frees
// all resources, including memory-server state, §4.2).
func (o ops) Delete(id pagestore.VMID) error {
	c := call{op: "Delete", req: msgDeleteVM, want: msgOK, mutating: true}
	c.u32(uint32(id))
	_, err := o.x.exchange(c)
	return err
}

// Stats fetches the server's counters.
func (o ops) Stats() (Stats, error) {
	reply, err := o.x.exchange(call{op: "Stats", req: msgStats, want: msgStatsReply})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(reply, &st); err != nil {
		return Stats{}, fmt.Errorf("memserver: decode stats: %w", err)
	}
	return st, nil
}

// SetServing toggles whether the daemon serves pages. The host agent stops
// the daemon when the host wakes and its VMs return (§4.3).
func (o ops) SetServing(on bool) error {
	c := call{op: "SetServing", req: msgSetServing, want: msgOK, mutating: true, n: 1}
	if on {
		c.prefix[0] = 1
	}
	_, err := o.x.exchange(c)
	return err
}
