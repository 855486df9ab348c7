package memserver

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// Stats describes a server's activity, returned by the Stats request.
type Stats struct {
	VMs           int         `json:"vms"`
	PagesServed   int64       `json:"pages_served"`
	BytesServed   units.Bytes `json:"bytes_served"`
	PagesUploaded int64       `json:"pages_uploaded"`
	Serving       bool        `json:"serving"`
}

// DefaultIdleTimeout is how long a connection may sit idle (no inbound
// frame) before the server drops it. A stalled or half-open client —
// one whose host died without closing the TCP connection — would
// otherwise pin a goroutine and a conn-table entry forever.
const DefaultIdleTimeout = 2 * time.Minute

// Server is a memory page server daemon. One runs per host in an Oasis
// cluster; it owns the images the host wrote out before suspending.
type Server struct {
	secret []byte
	store  *pagestore.Store
	logf   func(format string, args ...any)

	// persistDir, when set, mirrors images to disk (see persist.go).
	persistDir string

	// idleTimeout bounds how long serveConn waits for the next frame.
	idleTimeout time.Duration
	// requireUploadMAC refuses the handshake of clients that do not
	// offer per-chunk upload MACs (downgrade refusal; see proto.go).
	requireUploadMAC bool
	// wrapConn, when set, wraps every accepted connection — the hook
	// the fault injector uses to perturb server-side transport.
	wrapConn func(net.Conn) net.Conn

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Chunked streaming uploads staged but not yet committed, plus the
	// last committed upload id per VM (what makes a retried PutCommit
	// after a lost reply an acknowledgement instead of an error). One
	// pending upload per VM: a new upload id replaces a stale one, which
	// is also how abandoned uploads from crashed clients get collected.
	upMu      sync.Mutex
	uploads   map[pagestore.VMID]*pendingUpload
	committed map[pagestore.VMID]uint64

	// storeMu guards storeLive/storeHeld, this server's last published
	// contribution to the shared store-size gauges (see noteStore).
	storeMu              sync.Mutex
	storeLive, storeHeld int64

	serving       atomic.Bool
	pagesServed   atomic.Int64
	bytesServed   atomic.Int64
	pagesUploaded atomic.Int64

	// tel holds the live metric instruments (ops, bytes, latency, conns);
	// see telemetry.go and OBSERVABILITY.md.
	tel *serverTel
}

// NewServer creates a server that authenticates clients with the shared
// secret. logf may be nil to disable logging.
func NewServer(secret []byte, logf func(string, ...any)) *Server {
	return NewServerWithStore(secret, pagestore.NewStore(), logf)
}

// NewServerWithStore creates a server over an existing image store. A
// daemon restarting after a crash hands its reloaded store (or the
// persist-dir images) to the new instance so partial VMs resume against
// the same pages.
func NewServerWithStore(secret []byte, store *pagestore.Store, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		secret:      append([]byte(nil), secret...),
		store:       store,
		logf:        logf,
		idleTimeout: DefaultIdleTimeout,
		conns:       make(map[net.Conn]struct{}),
		uploads:     make(map[pagestore.VMID]*pendingUpload),
		committed:   make(map[pagestore.VMID]uint64),
		tel:         newServerTel(telemetry.Default),
	}
	s.serving.Store(true)
	return s
}

// SetMetricsRegistry rebinds the server's telemetry instruments to r
// (default: telemetry.Default). Call before Listen; tests use it to
// read counters from an isolated registry.
func (s *Server) SetMetricsRegistry(r *telemetry.Registry) { s.tel = newServerTel(r) }

// SetIdleTimeout bounds how long a connection may sit without sending a
// frame before it is dropped (zero disables the limit). The default is
// DefaultIdleTimeout; call before Listen.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idleTimeout = d }

// SetConnWrapper installs a wrapper applied to every accepted
// connection (fault injection, instrumentation). Call before Listen.
func (s *Server) SetConnWrapper(wrap func(net.Conn) net.Conn) { s.wrapConn = wrap }

// SetRequireUploadMAC makes the handshake refuse clients that do not
// offer the per-chunk upload MAC capability, so a stripped-down or
// downgraded client cannot feed the server unauthenticated image bytes.
// Call before Listen.
func (s *Server) SetRequireUploadMAC(on bool) { s.requireUploadMAC = on }

// Store exposes the underlying image store (hosts preload images through
// it when co-located, as the prototype's SAS path does).
func (s *Server) Store() *pagestore.Store { return s.store }

// InstallImage installs a full snapshot as a VM's image: the host-local
// (SAS) path that bypasses the network. The snapshot stays the
// caller's: the image keeps a copy. An image counts its non-zero pages
// as uploaded, as a streamed one does.
func (s *Server) InstallImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte) error {
	return s.installImage(id, alloc, bytes.Clone(snapshot))
}

// installImage is every whole-image put's install: the PutImage
// request's, on the buffer its frame was read into, and InstallImage's,
// on its copy. The image takes ownership of snapshot.
func (s *Server) installImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte) error {
	im := pagestore.NewImage(alloc)
	if _, err := s.adopt(im, snapshot); err != nil {
		return err
	}
	s.store.Put(id, im)
	s.pagesUploaded.Add(im.TouchedPages())
	return s.stored(id)
}

// ApplyDiff applies a differential snapshot to an existing image: the
// host-local path. Like InstallImage it keeps a copy of the snapshot.
func (s *Server) ApplyDiff(id pagestore.VMID, snapshot []byte) error {
	return s.putDiff(id, bytes.Clone(snapshot))
}

// putDiff is the streamed diff's commit over one chunk, shared by the
// PutDiff request and ApplyDiff, so every diff path counts the entries
// it adopted as uploaded pages. The image takes ownership of snapshot.
func (s *Server) putDiff(id pagestore.VMID, snapshot []byte) error {
	n, err := s.applyDiff(id, [][]byte{snapshot})
	if err != nil {
		return err
	}
	s.pagesUploaded.Add(n)
	return s.stored(id)
}

// adopt is every image put's way into an image: each entry of the
// snapshot is checked (pagestore.Image.Stage), and only a snapshot that
// passes whole changes the image, its entries kept as they arrived —
// in snapshot itself, which the image takes ownership of.
func (s *Server) adopt(im *pagestore.Image, snapshot []byte) (entries int64, err error) {
	st, err := im.Stage(snapshot)
	if err != nil {
		return 0, err
	}
	return s.adoptStaged(im, st), nil
}

func (s *Server) adoptStaged(im *pagestore.Image, staged ...*pagestore.Staged) int64 {
	n, compacted := im.Adopt(staged...)
	if compacted {
		s.tel.compactions.Inc()
	}
	return n
}

// stored follows every change to the store: it publishes the store's
// size and mirrors the VM's image to disk.
func (s *Server) stored(id pagestore.VMID) error {
	s.noteStore()
	return s.persist(id)
}

// noteStore moves the store-size gauges by what this server's store
// changed since it last looked. The series are shared by every server
// in the process, and a store outlives a restarted server, so a closed
// server's share is nothing.
func (s *Server) noteStore() {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	var live, held int64
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		live, held = s.store.WireBytes()
	}
	s.tel.storeLive.Add(float64(live - s.storeLive))
	s.tel.storeHeld.Add(float64(held - s.storeHeld))
	s.storeLive, s.storeHeld = live, held
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("memserver: listen: %w", err)
	}
	s.ln = ln
	s.noteStore() // a store handed over by a restarted daemon is not empty
	go s.acceptLoop()
	return ln.Addr(), nil
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.noteStore()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

// Snapshot of current statistics.
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		VMs:           s.store.Len(),
		PagesServed:   s.pagesServed.Load(),
		BytesServed:   units.Bytes(s.bytesServed.Load()),
		PagesUploaded: s.pagesUploaded.Load(),
		Serving:       s.serving.Load(),
	}
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.logf("memserver: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.wrapConn != nil {
			conn = s.wrapConn(conn)
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

func (s *Server) serveConn(raw net.Conn) {
	defer s.dropConn(raw)
	// Wire-byte accounting wraps the conn itself so every frame — auth
	// included — is counted exactly once, in both directions.
	conn := net.Conn(&countingConn{Conn: raw, in: s.tel.bytesIn, out: s.tel.bytesOut})
	s.tel.connsTotal.Inc()
	s.tel.connsActive.Inc()
	defer s.tel.connsActive.Dec()
	// A panic while handling one client (a malformed request tripping an
	// unforeseen edge, a fault-injection torn frame) must not take down
	// the daemon: other hosts' partial VMs depend on it staying up.
	defer func() {
		if r := recover(); r != nil {
			s.tel.panics.Inc()
			s.logf("memserver: conn %v: recovered from panic: %v", conn.RemoteAddr(), r)
		}
	}()
	if s.idleTimeout > 0 {
		raw.SetReadDeadline(time.Now().Add(s.idleTimeout))
	}
	// Per-connection reusable buffers: one goroutine serves a
	// connection, so the receive buffer and the reply under construction
	// (which stored entries are copied into, see
	// pagestore.Image.AppendEntries) live across frames instead of being
	// allocated per page — the page-serving hot path is allocation-free
	// in steady state, and a put's frame is read into the one buffer its
	// image keeps (see readFrameReuse).
	var scratch connScratch
	if err := s.authenticate(conn, &scratch); err != nil {
		s.tel.authFail.Inc()
		s.logf("memserver: auth failure from %v: %v", conn.RemoteAddr(), err)
		return
	}
	for {
		// Re-arm the idle deadline per frame: an active client may talk
		// for hours, but a silent one is dropped after idleTimeout.
		if s.idleTimeout > 0 {
			raw.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		typ, payload, err := readFrameReuse(conn, &scratch.hdr, &scratch.read)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.tel.idleDrops.Inc()
				s.logf("memserver: conn %v: dropped after %v idle", conn.RemoteAddr(), s.idleTimeout)
			}
			return // EOF, idle timeout, or broken connection; client is gone
		}
		if err := s.handle(conn, typ, payload, &scratch); err != nil {
			s.logf("memserver: conn %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// connScratch holds one connection's reusable buffers and the
// negotiated per-connection auth state.
type connScratch struct {
	hdr   [5]byte         // inbound frame header (stack copies escape via io.ReadFull)
	read  []byte          // inbound frame payload (reused; puts bypass it, see readFrameReuse)
	reply []byte          // outgoing reply frame under construction
	pfns  []pagestore.PFN // the GetPages batch being served
	upMAC *sessionHMAC
}

// beginReply starts a reply frame of the given type in the connection's
// reusable buffer, leaving room for the header.
func (sc *connScratch) beginReply(typ byte) []byte {
	return append(sc.reply[:0], 0, 0, 0, 0, typ)
}

// finishReply patches the frame length and sends the reply in a single
// write, keeping the buffer for the next frame.
func (sc *connScratch) finishReply(w io.Writer, out []byte) error {
	binary.BigEndian.PutUint32(out[:4], uint32(len(out)-5))
	sc.reply = out
	_, err := w.Write(out)
	return err
}

func (s *Server) authenticate(conn net.Conn, scratch *connScratch) error {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	if err := writeFrame(conn, msgChallenge, nonce[:]); err != nil {
		return err
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ != msgAuth {
		return errors.New("expected auth frame")
	}
	// Payload: 32-byte handshake MAC, optionally followed by one byte of
	// offered capability flags (see proto.go).
	if len(payload) < sha256.Size {
		writeFrame(conn, msgError, []byte("authentication failed"))
		return errors.New("short auth frame")
	}
	mac := payload[:sha256.Size]
	var offered byte
	if len(payload) > sha256.Size {
		offered = payload[sha256.Size]
	}
	h := hmac.New(sha256.New, s.secret)
	h.Write(nonce[:])
	want := h.Sum(nil)
	if subtle.ConstantTimeCompare(mac, want) != 1 {
		writeFrame(conn, msgError, []byte("authentication failed"))
		return errors.New("bad mac")
	}
	accepted := offered & authFlagUploadMAC
	if s.requireUploadMAC && accepted&authFlagUploadMAC == 0 {
		writeFrame(conn, msgError, []byte("per-chunk upload MAC required"))
		return errors.New("client refused upload MAC (downgrade refused)")
	}
	if accepted&authFlagUploadMAC != 0 {
		scratch.upMAC = sessionMAC(s.secret, nonce[:])
	}
	return writeFrame(conn, msgOK, []byte{accepted})
}

func (s *Server) handle(conn net.Conn, typ byte, payload []byte, scratch *connScratch) error {
	op := s.tel.op(typ)
	op.total.Inc()
	start := time.Now()
	defer func() { op.lat.Observe(sinceSeconds(start)) }()
	fail := func(err error) error {
		op.errors.Inc()
		return writeFrame(conn, msgError, []byte(err.Error()))
	}
	// Upload payloads carry the session MAC trailer when the handshake
	// negotiated it: verify and strip before parsing (amortized auth —
	// one HMAC pass per chunk, not per frame byte on the serving path).
	switch typ {
	case msgPutImage, msgPutDiff, msgPutChunk:
		if scratch.upMAC != nil {
			var err error
			if payload, err = scratch.upMAC.verify(payload); err != nil {
				return fail(err)
			}
		}
	}
	switch typ {
	case msgGetPage:
		if !s.serving.Load() {
			return fail(errors.New("daemon not serving (host awake)"))
		}
		if len(payload) != 12 {
			return fail(errors.New("malformed GetPage"))
		}
		vmid := pagestore.VMID(binary.BigEndian.Uint32(payload))
		pfn := pagestore.PFN(binary.BigEndian.Uint64(payload[4:]))
		im, err := s.store.Get(vmid)
		if err != nil {
			return fail(err)
		}
		// msgPage's reply body IS the page encoding (u16 token | payload),
		// built in the connection's reusable buffer and sent with a single
		// write. A page that arrived compressed is copied into the frame as
		// it is stored; only a page held raw is compressed here, straight
		// into the frame. Either way the reply allocates nothing.
		out, err := im.AppendEntry(scratch.beginReply(msgPage), pfn)
		if err != nil {
			return fail(err)
		}
		s.pagesServed.Add(1)
		s.bytesServed.Add(int64(len(out) - 5))
		return scratch.finishReply(conn, out)

	case msgGetPages:
		if !s.serving.Load() {
			return fail(errors.New("daemon not serving (host awake)"))
		}
		vmid, pfns, err := parseGetPagesRequest(scratch.pfns, payload)
		if err != nil {
			return fail(err)
		}
		scratch.pfns = pfns
		n := len(pfns)
		s.tel.batchPages.Observe(float64(n))
		im, err := s.store.Get(vmid)
		if err != nil {
			return fail(err)
		}
		out := binary.BigEndian.AppendUint32(scratch.beginReply(msgPages), uint32(n))
		if out, err = im.AppendEntries(out, pfns); err != nil {
			return fail(err)
		}
		s.pagesServed.Add(int64(n))
		s.bytesServed.Add(int64(len(out) - 5))
		return scratch.finishReply(conn, out)

	case msgPutImage:
		if len(payload) < 12 {
			return fail(errors.New("malformed PutImage"))
		}
		vmid := pagestore.VMID(binary.BigEndian.Uint32(payload))
		alloc := units.Bytes(binary.BigEndian.Uint64(payload[4:]))
		if err := s.installImage(vmid, alloc, payload[12:]); err != nil {
			return fail(err)
		}
		return writeFrame(conn, msgOK, nil)

	case msgPutDiff:
		if len(payload) < 4 {
			return fail(errors.New("malformed PutDiff"))
		}
		if err := s.putDiff(pagestore.VMID(binary.BigEndian.Uint32(payload)), payload[4:]); err != nil {
			return fail(err)
		}
		return writeFrame(conn, msgOK, nil)

	case msgPutBegin:
		vmid, uploadID, kind, alloc, err := parsePutBegin(payload)
		if err != nil {
			return fail(err)
		}
		if err := s.putBegin(vmid, uploadID, kind, alloc); err != nil {
			return fail(err)
		}
		return writeFrame(conn, msgOK, nil)

	case msgPutChunk:
		vmid, uploadID, seq, chunk, err := parsePutChunk(payload)
		if err != nil {
			return fail(err)
		}
		if err := s.putChunk(vmid, uploadID, seq, chunk); err != nil {
			return fail(err)
		}
		return writeFrame(conn, msgOK, nil)

	case msgPutCommit:
		vmid, uploadID, chunks, err := parsePutCommit(payload)
		if err != nil {
			return fail(err)
		}
		if err := s.putCommit(vmid, uploadID, chunks); err != nil {
			return fail(err)
		}
		return writeFrame(conn, msgOK, nil)

	case msgDeleteVM:
		if len(payload) != 4 {
			return fail(errors.New("malformed DeleteVM"))
		}
		id := pagestore.VMID(binary.BigEndian.Uint32(payload))
		s.store.Delete(id)
		s.upMu.Lock()
		delete(s.uploads, id)
		delete(s.committed, id)
		s.upMu.Unlock()
		s.noteStore()
		s.unpersist(id)
		return writeFrame(conn, msgOK, nil)

	case msgStats:
		data, err := json.Marshal(s.StatsSnapshot())
		if err != nil {
			return fail(err)
		}
		return writeFrame(conn, msgStatsReply, data)

	case msgSetServing:
		if len(payload) != 1 {
			return fail(errors.New("malformed SetServing"))
		}
		s.serving.Store(payload[0] != 0)
		return writeFrame(conn, msgOK, nil)

	default:
		return fail(fmt.Errorf("unknown message type %d", typ))
	}
}
