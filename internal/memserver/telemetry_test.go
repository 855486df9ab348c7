package memserver

import (
	"errors"
	"strings"
	"testing"
	"time"

	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// resCounters reads back the oasis_client_* series the client under test
// publishes; registration is idempotent, so asking the registry returns
// the client's own instruments.
func resCounters(r *telemetry.Registry, name string) (retries, reconnects, failures, opens, state float64) {
	l := telemetry.L("client", name)
	retries = r.Counter("oasis_client_retries_total", "", l).Value()
	reconnects = r.Counter("oasis_client_reconnects_total", "", l).Value()
	failures = r.Counter("oasis_client_failures_total", "", l).Value()
	opens = r.Counter("oasis_client_breaker_opens_total", "", l).Value()
	state = r.Gauge("oasis_client_breaker_state", "", l).Value()
	return
}

// TestResilientMetricsMatchStats drives a resilient client through a
// memory-server outage — failures, retries, a breaker open, reconnect
// and recovery — and asserts the registry's oasis_client_* series agree
// exactly with the client's own ResilienceStats snapshot. The metrics
// are the scrape-facing view of the same events, so any divergence is a
// double- or missed count.
func TestResilientMetricsMatchStats(t *testing.T) {
	rs := newRestartableServer(t)
	_, snap := makeSnapshot(t, 8*units.MiB, 3, 40)

	reg := telemetry.NewRegistry()
	cfg := fastResilient()
	cfg.Name = "storm"
	cfg.Registry = reg
	rc, err := DialPool(rs.addr, testSecret, PoolConfig{Size: 1, Resilience: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.PutImage(42, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	// Kill the server and hammer until the breaker opens.
	rs.kill()
	for i := 0; i < 50; i++ {
		if _, err := rc.GetPage(42, 7); errors.Is(err, ErrCircuitOpen) {
			break
		}
	}
	if rc.BreakerState() != BreakerOpen {
		t.Fatalf("breaker did not open: %v", rc.BreakerState())
	}
	if _, _, _, opens, state := resCounters(reg, "storm"); opens == 0 || state != float64(BreakerOpen) {
		t.Fatalf("open not reflected in metrics: opens=%v state=%v", opens, state)
	}

	// Restart, wait out the cooldown, and recover.
	if err := rs.restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := rc.GetPage(42, 7); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client did not recover after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := rc.ResilienceStats()
	retries, reconnects, failures, opens, state := resCounters(reg, "storm")
	if retries != float64(st.Retries) {
		t.Errorf("retries: metric %v, stats %d", retries, st.Retries)
	}
	if reconnects != float64(st.Reconnects) {
		t.Errorf("reconnects: metric %v, stats %d", reconnects, st.Reconnects)
	}
	if failures != float64(st.Failures) {
		t.Errorf("failures: metric %v, stats %d", failures, st.Failures)
	}
	if opens != float64(st.BreakerOpens) {
		t.Errorf("breaker opens: metric %v, stats %d", opens, st.BreakerOpens)
	}
	if state != float64(st.State) {
		t.Errorf("breaker state: metric %v, stats %v", state, st.State)
	}
	if st.Retries == 0 || st.Failures == 0 || st.BreakerOpens == 0 {
		t.Errorf("storm too quiet to be a real test: %+v", st)
	}
}

// TestServerMetricsMatchSnapshot exercises every protocol op against a
// server bound to an isolated registry and checks the oasis_memserver_*
// series against ground truth (the ops issued, and StatsSnapshot for
// page counters).
func TestServerMetricsMatchSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(testSecret, t.Logf)
	s.SetMetricsRegistry(reg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	src, snap := makeSnapshot(t, 8*units.MiB, 5, 60)
	c, err := dialLane(network.TCP, addr.String(), testSecret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.PutImage(7, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	want, _ := src.Read(3)
	got, err := c.GetPage(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("page mismatch")
	}
	if _, err := c.GetPages(7, []pagestore.PFN{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPage(9999, 0); err == nil {
		t.Fatal("GetPage of unknown VM should fail")
	}

	opTotal := func(op string) float64 {
		return reg.Counter("oasis_memserver_ops_total", "", telemetry.L("op", op)).Value()
	}
	opErrors := func(op string) float64 {
		return reg.Counter("oasis_memserver_op_errors_total", "", telemetry.L("op", op)).Value()
	}
	if got := opTotal("put_image"); got != 1 {
		t.Errorf("put_image total = %v, want 1", got)
	}
	if got := opTotal("get_page"); got != 2 {
		t.Errorf("get_page total = %v, want 2", got)
	}
	if got := opErrors("get_page"); got != 1 {
		t.Errorf("get_page errors = %v, want 1", got)
	}
	if got := opTotal("get_pages"); got != 1 {
		t.Errorf("get_pages total = %v, want 1", got)
	}
	if got := opTotal("stats"); got != 1 {
		t.Errorf("stats total = %v, want 1", got)
	}
	if got := reg.Histogram("oasis_memserver_batch_pages", "", nil).Count(); got != 1 {
		t.Errorf("batch_pages count = %d, want 1", got)
	}
	if got := reg.Counter("oasis_memserver_connections_total", "").Value(); got != 1 {
		t.Errorf("connections_total = %v, want 1", got)
	}
	if in := reg.Counter("oasis_memserver_bytes_in_total", "").Value(); in < float64(len(snap)) {
		t.Errorf("bytes_in %v below uploaded snapshot size %d", in, len(snap))
	}
	// Pages travel compressed, so the floor is just "something was
	// written" (replies, challenge, compressed page bodies).
	if out := reg.Counter("oasis_memserver_bytes_out_total", "").Value(); out <= 0 {
		t.Errorf("bytes_out = %v, want > 0", out)
	}

	// The histogram of op latency counts exactly the ops issued. The
	// server observes an op's latency after writing its reply, so the
	// last observation may trail the client's return by a moment.
	lat := reg.Histogram("oasis_memserver_op_seconds", "", nil, telemetry.L("op", "get_page"))
	for deadline := time.Now().Add(2 * time.Second); lat.Count() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := lat.Count(); got != 2 {
		t.Errorf("get_page latency observations = %d, want 2", got)
	}
}

// TestAuthFailureMetric checks the auth-failure counter increments when
// a client presents the wrong secret.
func TestAuthFailureMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(testSecret, t.Logf)
	s.SetMetricsRegistry(reg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := dialLane(network.TCP, addr.String(), []byte("wrong"), time.Second); err == nil {
		t.Fatal("dial with wrong secret should fail")
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("oasis_memserver_auth_failures_total", "").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auth failure not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDecompressHistogramPopulated checks the GetPageStaged fast path
// feeds the process-wide decompress histogram and reports a sane stage
// split.
func TestDecompressHistogramPopulated(t *testing.T) {
	s := NewServer(testSecret, t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, snap := makeSnapshot(t, 8*units.MiB, 5, 60)
	c, err := dialLane(network.TCP, addr.String(), testSecret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PutImage(7, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	before := telemetry.Default.Histogram("oasis_client_decompress_seconds", "", nil).Count()
	page, wire, decompress, err := c.GetPageStaged(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != int(units.PageSize) {
		t.Fatalf("page len %d", len(page))
	}
	if wire <= 0 || decompress < 0 {
		t.Errorf("stage split wire=%v decompress=%v", wire, decompress)
	}
	after := telemetry.Default.Histogram("oasis_client_decompress_seconds", "", nil).Count()
	if after != before+1 {
		t.Errorf("decompress histogram count %d -> %d, want +1", before, after)
	}
}

// TestResilienceTextDump checks the anti-drift path the CLIs use: the
// registry's WriteText renders the same values the struct snapshot holds.
func TestResilienceTextDump(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := fastResilient()
	cfg.Name = "dump"
	cfg.Registry = reg
	rs := newRestartableServer(t)
	rc, err := DialPool(rs.addr, testSecret, PoolConfig{Size: 1, Resilience: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	var b strings.Builder
	if err := reg.WriteText(&b, "oasis_client_"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`oasis_client_retries_total{client="dump"} 0`,
		`oasis_client_breaker_state{client="dump"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}
