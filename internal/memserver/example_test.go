package memserver_test

import (
	"fmt"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// ExampleDialPool shows the knobs of the fault-tolerant client path — a
// one-lane pool — and a full round trip against a live server: upload an
// image the way a suspending host does, then fault a page back the way a
// memtap does. The config shown is the shape agents use — small retry budgets,
// fast breaker — with a Name so the client's oasis_client_* metrics are
// distinguishable in a scrape.
func ExampleDialPool() {
	secret := []byte("example-secret")
	srv := memserver.NewServer(secret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	cfg := memserver.ResilientConfig{
		// Attempt budgets: reads (a blocked guest fault has no
		// alternative) get more tries than uploads (the agent holds the
		// authoritative copy and can re-drive them).
		MaxRetries:      4,
		MutatingRetries: 2,
		// Reconnect backoff: base·2^attempt with seeded jitter, capped.
		BaseBackoff: 20 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		JitterSeed:  1, // deterministic backoff schedule for tests
		// Breaker: after 6 consecutive failures fail fast for 1 s, then
		// probe. While open, calls return ErrCircuitOpen immediately and
		// memtap reports the VM degraded (§4.4.4).
		BreakerThreshold: 6,
		BreakerCooldown:  time.Second,
		// Telemetry: label this client's series, publish to an isolated
		// registry (nil would use telemetry.Default).
		Name:     "example",
		Registry: telemetry.NewRegistry(),
	}
	rc, err := memserver.DialPool(addr.String(), secret, memserver.PoolConfig{Size: 1, Resilience: cfg})
	if err != nil {
		panic(err)
	}
	defer rc.Close()

	// Upload a tiny image, then fetch one page back.
	im := pagestore.NewImage(256 * units.KiB)
	if err := im.Write(3, make([]byte, units.PageSize)); err != nil {
		panic(err)
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		panic(err)
	}
	if err := rc.PutImage(1, 256*units.KiB, snap); err != nil {
		panic(err)
	}
	page, err := rc.GetPage(1, 3)
	if err != nil {
		panic(err)
	}

	st := rc.ResilienceStats()
	fmt.Println("page bytes:", len(page))
	fmt.Println("breaker:", st.State)
	fmt.Println("retries against a healthy server:", st.Retries)
	// Output:
	// page bytes: 4096
	// breaker: closed
	// retries against a healthy server: 0
}
