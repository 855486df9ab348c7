package memserver

import (
	"net"
	"time"

	"oasis/internal/telemetry"
)

// Live telemetry for the memory-server daemon and the client pool.
// Every instrument lives on a telemetry.Registry (the process Default
// unless overridden), so a -metrics-addr scrape sees the same counters
// the in-process Stats/ResilienceStats snapshots report. Instrument
// updates are atomic adds on pre-registered series: the page-serving
// hot path takes no locks and allocates nothing for metrics.

// opName maps request message types to their metric label.
func opName(typ byte) string {
	switch typ {
	case msgGetPage:
		return "get_page"
	case msgGetPages:
		return "get_pages"
	case msgPutImage:
		return "put_image"
	case msgPutDiff:
		return "put_diff"
	case msgDeleteVM:
		return "delete"
	case msgStats:
		return "stats"
	case msgSetServing:
		return "set_serving"
	case msgPutCommit:
		return "put_commit"
	default:
		return "unknown"
	}
}

// opTel is one operation's counter/latency pair.
type opTel struct {
	total  *telemetry.Counter
	errors *telemetry.Counter
	lat    *telemetry.Histogram
}

// serverTel bundles the daemon-side instruments. Multiple servers in one
// process (each host agent embeds one) aggregate into shared series.
type serverTel struct {
	connsActive *telemetry.Gauge
	connsTotal  *telemetry.Counter
	authFail    *telemetry.Counter
	panics      *telemetry.Counter
	idleDrops   *telemetry.Counter
	bytesIn     *telemetry.Counter
	bytesOut    *telemetry.Counter
	batchPages  *telemetry.Histogram
	applySecs   *telemetry.Histogram
	storeLive   *telemetry.Gauge
	storeHeld   *telemetry.Gauge
	compactions *telemetry.Counter
	ops         map[byte]opTel
}

func newServerTel(r *telemetry.Registry) *serverTel {
	t := &serverTel{
		connsActive: r.Gauge("oasis_memserver_connections_active",
			"Client connections currently held by the daemon."),
		connsTotal: r.Counter("oasis_memserver_connections_total",
			"Client connections accepted over the daemon's lifetime."),
		authFail: r.Counter("oasis_memserver_auth_failures_total",
			"Connections dropped for failing the HMAC challenge."),
		panics: r.Counter("oasis_memserver_conn_panics_total",
			"Per-connection panics recovered by the serve loop."),
		idleDrops: r.Counter("oasis_memserver_idle_drops_total",
			"Connections dropped for exceeding the idle timeout."),
		bytesIn: r.Counter("oasis_memserver_bytes_in_total",
			"Bytes read from clients (wire bytes, all frames)."),
		bytesOut: r.Counter("oasis_memserver_bytes_out_total",
			"Bytes written to clients (wire bytes, all frames)."),
		batchPages: r.Histogram("oasis_memserver_batch_pages",
			"Pages requested per GetPages batch.",
			telemetry.ExpBuckets(1, 2, 13)),
		applySecs: r.Histogram("oasis_memserver_apply_seconds",
			"Commit-time decode/apply latency of a staged upload.",
			telemetry.ExpBuckets(1e-5, 2, 20)),
		storeLive: r.Gauge("oasis_memserver_store_live_bytes",
			"Bytes of page entries the stored images serve as they arrived."),
		storeHeld: r.Gauge("oasis_memserver_store_held_bytes",
			"Bytes of the upload buffers those entries lie in, overwritten entries included."),
		compactions: r.Counter("oasis_memserver_store_compactions_total",
			"Times an image copied its live entries together to drop overwritten ones."),
		ops: make(map[byte]opTel),
	}
	for _, typ := range []byte{msgGetPage, msgGetPages, msgPutImage, msgPutDiff,
		msgDeleteVM, msgStats, msgSetServing, msgPutCommit, 0 /* unknown */} {
		op := opName(typ)
		t.ops[typ] = opTel{
			total: r.Counter("oasis_memserver_ops_total",
				"Operations handled, by protocol op.", telemetry.L("op", op)),
			errors: r.Counter("oasis_memserver_op_errors_total",
				"Operations answered with an error reply, by protocol op.", telemetry.L("op", op)),
			lat: r.Histogram("oasis_memserver_op_seconds",
				"Server-side operation service latency.", nil, telemetry.L("op", op)),
		}
	}
	return t
}

// op returns the instruments for a message type, folding unrecognised
// types onto the "unknown" series.
func (t *serverTel) op(typ byte) opTel {
	if o, ok := t.ops[typ]; ok {
		return o
	}
	return t.ops[0]
}

// countingConn tallies wire bytes into the server's traffic counters.
// Counting rides the Read/Write calls the serve loop already makes; it
// adds two atomic CASes per syscall and nothing else.
type countingConn struct {
	net.Conn
	in, out *telemetry.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(float64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.Add(float64(n))
	}
	return n, err
}

// clientTel bundles a ClientPool's instruments: its breaker's and retry
// loop's, and its dispatch across lanes. The client label
// (ResilientConfig.Name) separates e.g. a memtap's fault path from an
// agent's upload path.
type clientTel struct {
	retries    *telemetry.Counter
	reconnects *telemetry.Counter
	failures   *telemetry.Counter
	opens      *telemetry.Counter
	backoff    *telemetry.Counter
	state      *telemetry.Gauge
	size       *telemetry.Gauge
	inflight   *telemetry.Gauge
	dispatches *telemetry.Counter
}

// clientSeries resolves where a client's oasis_client_* series live: the
// Default registry unless one is given, under the client label name
// ("default" for unnamed clients, which therefore share their series).
func clientSeries(r *telemetry.Registry, name string) (*telemetry.Registry, telemetry.Label) {
	if r == nil {
		r = telemetry.Default
	}
	if name == "" {
		name = "default"
	}
	return r, telemetry.L("client", name)
}

func newClientTel(r *telemetry.Registry, name string) *clientTel {
	r, l := clientSeries(r, name)
	return &clientTel{
		retries: r.Counter("oasis_client_retries_total",
			"Operation attempts beyond the first.", l),
		reconnects: r.Counter("oasis_client_reconnects_total",
			"Successful re-dials after a poisoned connection.", l),
		failures: r.Counter("oasis_client_failures_total",
			"Attempts that ended in a transport error.", l),
		opens: r.Counter("oasis_client_breaker_opens_total",
			"Circuit-breaker transitions to open.", l),
		backoff: r.Counter("oasis_client_backoff_seconds_total",
			"Total time spent sleeping in retry backoff.", l),
		state: r.Gauge("oasis_client_breaker_state",
			"Current breaker state: 0 closed, 1 open, 2 half-open.", l),
		size: r.Gauge("oasis_client_pool_size",
			"Connections (lanes) in the client pool.", l),
		inflight: r.Gauge("oasis_client_pool_inflight",
			"Operations currently dispatched to pool lanes.", l),
		dispatches: r.Counter("oasis_client_pool_dispatches_total",
			"Operations dispatched through the pool.", l),
	}
}

// putTel bundles the upload client instruments. Like the pool metrics
// they live in the oasis_client_* namespace under the same client label,
// so one scrape shows an upload's chunk rate next to the pool carrying
// it.
type putTel struct {
	chunks   *telemetry.Counter
	inflight *telemetry.Gauge
	retried  *telemetry.Counter
}

func newPutTel(r *telemetry.Registry, name string) *putTel {
	r, l := clientSeries(r, name)
	return &putTel{
		chunks: r.Counter("oasis_client_put_chunks_total",
			"Snapshot chunks shipped by uploads, whole-snapshot frames included.", l),
		inflight: r.Gauge("oasis_client_put_inflight",
			"Upload chunks currently in flight.", l),
		retried: r.Counter("oasis_client_put_retried_total",
			"Upload chunks re-issued after a lane-level failure.", l),
	}
}

// decompressTel tracks client-side page decompression, the stage of the
// fault path that is neither wire nor install time.
var decompressSeconds = telemetry.Default.Histogram("oasis_client_decompress_seconds",
	"Client-side page decode/decompress latency.", telemetry.ExpBuckets(1e-6, 2, 16))

// sinceSeconds is a tiny helper for observing a latency.
func sinceSeconds(start time.Time) float64 { return time.Since(start).Seconds() }
