package memserver

import (
	"bufio"
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

	"oasis/internal/network"
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
	// wrapConn, when set, wraps every accepted connection — the hook
	// the fault injector uses to perturb server-side transport.
	wrapConn func(net.Conn) net.Conn

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Staged uploads not yet committed, plus the last committed upload
	// id per VM (what makes a retried PutCommit after a lost reply an
	// acknowledgement instead of an error). One pending upload per VM:
	// a new upload id replaces a stale one, which is also how abandoned
	// uploads from crashed clients get collected.
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
// connection (fault injection, instrumentation). Call before Listen or
// Serve.
func (s *Server) SetConnWrapper(wrap func(net.Conn) net.Conn) { s.wrapConn = wrap }

// Store exposes the underlying image store (hosts preload images through
// it when co-located, as the prototype's SAS path does).
func (s *Server) Store() *pagestore.Store { return s.store }

// InstallImage installs a full snapshot as a VM's image: the host-local
// (SAS) path that bypasses the network, and a whole-snapshot PutImage's
// install on the buffer its frame was read into. The image takes
// ownership of the snapshot: its entries are served from those bytes, so
// the caller must not write to the snapshot after the call, whatever it
// returns. An image counts its non-zero pages as uploaded, as a streamed
// one does.
func (s *Server) InstallImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte) error {
	im := pagestore.NewImage(alloc)
	if _, err := s.adopt(im, snapshot); err != nil {
		return err
	}
	s.store.Put(id, im)
	s.pagesUploaded.Add(im.TouchedPages())
	return s.stored(id)
}

// ApplyDiff applies a differential snapshot to an existing image: the
// host-local path, and a whole-snapshot PutDiff's, so every diff path
// counts the entries it adopted as uploaded pages. Like InstallImage it
// takes ownership of the snapshot.
func (s *Server) ApplyDiff(id pagestore.VMID, snapshot []byte) error {
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

// Listen serves TCP connections on addr (e.g. "127.0.0.1:0") and returns
// the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := network.TCP.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("memserver: listen: %w", err)
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections on ln, which any network.Network may have
// opened (network.TLS for §4.3's encrypted link); Close closes it.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.noteStore() // a store handed over by a restarted daemon is not empty
	go s.acceptLoop()
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

// deleteVM forgets everything the server holds for id: its image, its
// staged upload and its last committed upload id.
func (s *Server) deleteVM(id pagestore.VMID) {
	s.store.Delete(id)
	s.upMu.Lock()
	delete(s.uploads, id)
	delete(s.committed, id)
	s.upMu.Unlock()
	s.noteStore()
	s.unpersist(id)
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
	// The idle deadline bounds every read, the handshake's included. It
	// moves only when it has gone stale at now (see rearm): an active
	// client may talk for hours, but a silent one is dropped after
	// idleTimeout. Between frames, now is when the last one was handled:
	// handle reads the clock there anyway.
	var idle time.Time
	armIdle := func(now time.Time) {
		if s.idleTimeout > 0 && rearm(idle, now, s.idleTimeout) {
			idle = now.Add(s.idleTimeout)
			raw.SetReadDeadline(idle)
		}
	}
	armIdle(time.Now())
	// A TLS conn handshakes lazily, on its first read or write; finish
	// it here, so that a bad certificate or a client that does not speak
	// TLS is logged as what it is and not as a wrong secret.
	if tc, ok := raw.(interface{ Handshake() error }); ok {
		if err := tc.Handshake(); err != nil {
			s.logf("memserver: tls handshake from %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
	// Per-connection reusable buffers: one goroutine serves a
	// connection, so the receive buffer and the reply under construction
	// (which stored entries are copied into, see
	// pagestore.Image.AppendEntries) live across frames instead of being
	// allocated per page — the page-serving hot path is allocation-free
	// in steady state, and a put's frame is read into the one buffer its
	// image keeps (see readFrameReuse). Every read, the handshake's
	// included, goes through one reader, so a request that arrives in
	// one segment with the frame before it is not lost.
	var scratch connScratch
	r := bufio.NewReaderSize(conn, readerSize)
	if err := s.authenticate(conn, r, &scratch); err != nil {
		s.tel.authFail.Inc()
		s.logf("memserver: auth failure from %v: %v", conn.RemoteAddr(), err)
		return
	}
	scratch.handled = time.Now()
	for {
		armIdle(scratch.handled)
		typ, payload, err := readFrameReuse(r, &scratch.hdr, &scratch.read)
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
// per-connection upload MAC the handshake derived.
type connScratch struct {
	hdr   [5]byte         // inbound frame header (stack copies escape via io.ReadFull)
	read  []byte          // inbound frame payload (reused; puts bypass it, see readFrameReuse)
	reply []byte          // outgoing reply frame under construction
	pfns  []pagestore.PFN // the GetPages batch being served
	upMAC *sessionGCM
	// handled is when handle finished the last frame.
	handled time.Time
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

// authenticate challenges the client on conn and reads its answer
// through r.
func (s *Server) authenticate(conn net.Conn, r io.Reader, scratch *connScratch) error {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	if err := writeFrame(conn, msgChallenge, nonce[:]); err != nil {
		return err
	}
	typ, payload, err := readFrame(r)
	if err != nil {
		return err
	}
	if typ != msgAuth {
		return errors.New("expected auth frame")
	}
	// Payload: exactly the 32-byte handshake MAC (see proto.go).
	if len(payload) != sha256.Size {
		writeFrame(conn, msgError, []byte("authentication failed"))
		return fmt.Errorf("auth frame of %d bytes, want %d", len(payload), sha256.Size)
	}
	h := hmac.New(sha256.New, s.secret)
	h.Write(nonce[:])
	if subtle.ConstantTimeCompare(payload, h.Sum(nil)) != 1 {
		writeFrame(conn, msgError, []byte("authentication failed"))
		return errors.New("bad mac")
	}
	scratch.upMAC = sessionMAC(s.secret, nonce[:])
	return writeFrame(conn, msgOK, nil)
}

func (s *Server) handle(conn net.Conn, typ byte, payload []byte, scratch *connScratch) error {
	op := s.tel.op(typ)
	op.total.Inc()
	start := time.Now()
	defer func() {
		scratch.handled = time.Now()
		op.lat.Observe(scratch.handled.Sub(start).Seconds())
	}()
	fail := func(err error) error {
		op.errors.Inc()
		return writeFrame(conn, msgError, []byte(err.Error()))
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

	case msgPutImage, msgPutDiff:
		// An upload payload carries the session MAC trailer: verify and
		// strip it before parsing (one GCM pass per frame; the upload
		// sequence advances either way). A payload that fails is refused.
		body, err := scratch.upMAC.verify(typ, payload)
		if err != nil {
			return fail(err)
		}
		h, chunk, err := parsePut(typ, body)
		if err != nil {
			return fail(err)
		}
		if err := s.put(h, chunk); err != nil {
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
		s.deleteVM(pagestore.VMID(binary.BigEndian.Uint32(payload)))
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
