package main

import (
	"time"

	"oasis"
)

// server is one in-process memory server on loopback.
type server struct {
	srv   *oasis.MemServer
	addr  string
	stats *connStats // what its connections saw; nil unless traced
}

// startServer listens on a free loopback port. A traced run counts and
// timestamps the server's side of every connection; an untraced run
// installs nothing, so its sockets are exactly what a user gets.
func startServer(e *env) (*server, error) {
	s := &server{srv: oasis.NewMemServer(secret, nil)}
	if e.rec != nil {
		s.stats = &connStats{}
		s.srv.SetConnWrapper(s.stats.wrap)
	}
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = addr.String()
	return s, nil
}

func (s *server) close() {
	if s != nil {
		s.srv.Close()
	}
}

// tracedConn records a span around every page and upload call of a
// MemConn. prefix names the layer behind it: "memserver" for a single
// connection, "shard" for the fabric.
type tracedConn struct {
	oasis.MemConn
	rec *recorder
	// span and value names, built once: the fault path should not pay
	// for a string concatenation per call
	getPage, getPageWire, getPageDecompress, getPages, getPagesPages, putImage, putDiff string
}

func newTracedConn(conn oasis.MemConn, rec *recorder, prefix string) *tracedConn {
	return &tracedConn{
		MemConn: conn, rec: rec,
		getPage: prefix + ".GetPage", getPageWire: prefix + ".GetPage.wire",
		getPageDecompress: prefix + ".GetPage.decompress",
		getPages:          prefix + ".GetPages", getPagesPages: prefix + ".GetPages.pages",
		putImage: prefix + ".PutImage", putDiff: prefix + ".PutDiff",
	}
}

func (c *tracedConn) GetPage(id oasis.VMID, pfn oasis.PFN) ([]byte, error) {
	s := c.rec.begin(c.getPage)
	defer c.rec.end(s)
	return c.MemConn.GetPage(id, pfn)
}

// GetPageStaged keeps the memtap on the staged fetch it uses over an
// unwrapped client, and records the wire/decompress split it returns.
func (c *tracedConn) GetPageStaged(id oasis.VMID, pfn oasis.PFN) ([]byte, time.Duration, time.Duration, error) {
	s := c.rec.begin(c.getPage)
	page, wire, decompress, err := c.MemConn.GetPageStaged(id, pfn)
	c.rec.end(s)
	c.rec.value(c.getPageWire, float64(wire.Nanoseconds()))
	c.rec.value(c.getPageDecompress, float64(decompress.Nanoseconds()))
	return page, wire, decompress, err
}

func (c *tracedConn) GetPages(id oasis.VMID, pfns []oasis.PFN) (map[oasis.PFN][]byte, error) {
	s := c.rec.begin(c.getPages)
	defer c.rec.end(s)
	c.rec.value(c.getPagesPages, float64(len(pfns)))
	return c.MemConn.GetPages(id, pfns)
}

func (c *tracedConn) PutImage(id oasis.VMID, alloc oasis.Bytes, snapshot []byte) error {
	s := c.rec.begin(c.putImage)
	defer c.rec.end(s)
	return c.MemConn.PutImage(id, alloc, snapshot)
}

func (c *tracedConn) PutDiff(id oasis.VMID, snapshot []byte) error {
	s := c.rec.begin(c.putDiff)
	defer c.rec.end(s)
	return c.MemConn.PutDiff(id, snapshot)
}

// ResilienceStats forwards the wrapped client's retry counters, so the
// memtap reports them as it does over an unwrapped client.
func (c *tracedConn) ResilienceStats() oasis.ResilienceStats {
	if rc, ok := c.MemConn.(interface {
		ResilienceStats() oasis.ResilienceStats
	}); ok {
		return rc.ResilienceStats()
	}
	return oasis.ResilienceStats{}
}

// tracedPager records a span around the memtap's fault path.
type tracedPager struct {
	inner oasis.Pager
	rec   *recorder
}

func (p *tracedPager) FetchPage(id oasis.VMID, pfn oasis.PFN) ([]byte, error) {
	s := p.rec.begin("memtap.FetchPage")
	defer p.rec.end(s)
	return p.inner.FetchPage(id, pfn)
}

// dial connects to one server, or to the fabric when backends are given,
// under a span, and wraps the connection when the run is traced. single
// are the options of a single-server dial: none gives the default
// connection a detaching host uploads over.
func dial(e *env, addr string, backends []string, single ...oasis.DialOption) (oasis.MemConn, error) {
	opts, prefix := single, "memserver"
	if len(backends) > 0 {
		opts = []oasis.DialOption{oasis.WithBackends(backends...), oasis.WithReplicas(fabricReplicas)}
		prefix = "shard"
	}
	s := e.rec.begin(prefix + ".Dial")
	conn, err := oasis.Dial(addr, secret, opts...)
	e.rec.end(s)
	if err != nil {
		return nil, err
	}
	if e.rec != nil {
		conn = newTracedConn(conn, e.rec, prefix)
	}
	return conn, nil
}

// dialMemtap builds the memtap of a VM waking on a consolidation host,
// and the pager its partial VM faults through. Untraced it is the default
// memtap. Traced, the same transport shape (one resilient connection, or
// the fabric) is dialed through the facade so that a tracedConn can sit
// between memtap and client, and a tracedPager between hypervisor and
// memtap.
func dialMemtap(e *env, vmid oasis.VMID, addr string, backends []string) (*oasis.Memtap, oasis.Pager, error) {
	if e.rec == nil {
		opts := oasis.MemtapOptions{Backends: backends}
		if len(backends) > 0 {
			opts.Replicas = fabricReplicas
		}
		mt, err := oasis.NewMemtapWithOptions(vmid, addr, secret, opts)
		return mt, mt, err
	}
	conn, err := dial(e, addr, backends, oasis.WithResilience(oasis.ResilienceConfig{}))
	if err != nil {
		return nil, nil, err
	}
	mt := oasis.NewMemtapWithClient(vmid, conn)
	return mt, &tracedPager{inner: mt, rec: e.rec}, nil
}
