package agent

import (
	"sync"
	"time"

	"oasis/internal/telemetry"
)

// The control plane's actuation layer: batched asynchronous RPC fan-out
// with bounded concurrency. The manager's decisions (place a VM, sweep
// for degraded VMs) need a fleet-wide view, and the original
// implementation built it with one synchronous Stats RPC per host in a
// serial loop — O(hosts) round trips per decision. fanOut issues the
// per-host calls from a bounded worker pool instead, and joins the
// per-host errors (errors.Join) in deterministic host order, so an
// all-hosts-unreachable fleet reports every cause instead of a generic
// "no host available".

// defaultFanOut bounds the concurrent RPCs of one fan-out. 32 keeps a
// 10k-host sweep from opening 10k simultaneous reads while still hiding
// the per-host round-trip latency; SetFanOutLimit overrides it.
const defaultFanOut = 32

// managerTelemetry is the control plane's oasis_manager_* instrument
// set. Process-global (registration is idempotent): a process hosting
// several managers — tests, the stress bench — reports their combined
// activity, exactly like the pool/shard client metrics.
type managerTelemetry struct {
	hosts          *telemetry.Gauge
	fanouts        *telemetry.Counter
	fanoutErrors   *telemetry.Counter
	fanoutSecs     *telemetry.Histogram
	statsRefreshes *telemetry.Counter
	statsCoalesced *telemetry.Counter
}

var managerTel = func() *managerTelemetry {
	r := telemetry.Default
	return &managerTelemetry{
		hosts: r.Gauge("oasis_manager_hosts",
			"Hosts currently registered across this process's managers."),
		fanouts: r.Counter("oasis_manager_fanouts_total",
			"Batched RPC fan-outs issued (stats sweeps, placement scans)."),
		fanoutErrors: r.Counter("oasis_manager_fanout_errors_total",
			"Per-host errors joined into fan-out results."),
		fanoutSecs: r.Histogram("oasis_manager_fanout_seconds",
			"Wall time of one full fan-out (all hosts, bounded concurrency).",
			telemetry.ExpBuckets(1e-4, 2, 18)),
		statsRefreshes: r.Counter("oasis_manager_stats_refreshes_total",
			"Agent.Stats RPCs actually issued by the registry."),
		statsCoalesced: r.Counter("oasis_manager_stats_coalesced_total",
			"Stats reads satisfied by an already-in-flight refresh (single-flight)."),
	}
}()

// fanOut runs fn for every entry from a pool of at most limit
// goroutines and returns the per-entry results in entry order.
// Individual errors land in errs (same indexing); the joined error is
// the caller's to build so best-effort sweeps can ignore it.
func fanOut[T any](entries []*hostEntry, limit int, fn func(*hostEntry) (T, error)) (out []T, errs []error) {
	n := len(entries)
	out = make([]T, n)
	errs = make([]error, n)
	if n == 0 {
		return out, errs
	}
	if limit <= 0 {
		limit = defaultFanOut
	}
	if limit > n {
		limit = n
	}
	managerTel.fanouts.Inc()
	t0 := time.Now()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(limit)
	for w := 0; w < limit; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				out[i], errs[i] = fn(entries[i])
			}
		}()
	}
	wg.Wait()
	managerTel.fanoutSecs.Observe(time.Since(t0).Seconds())
	for _, err := range errs {
		if err != nil {
			managerTel.fanoutErrors.Inc()
		}
	}
	return out, errs
}

// HostScan is one host's slot in a fleet-wide stats sweep.
type HostScan struct {
	// Name is the host's registered name.
	Name string
	// Stats is the refreshed stats; valid when Err is nil.
	Stats Stats
	// Epoch is the registry's stats epoch for this snapshot.
	Epoch uint64
	// Err is the per-host refresh failure, if any.
	Err error
}

// scanStats refreshes every registered host's stats with one bounded
// fan-out (single-flight per host: concurrent sweeps share RPCs) and
// returns the results in host-name order.
func (m *Manager) scanStats() []HostScan {
	entries := m.reg.snapshot()
	out, errs := fanOut(entries, m.fanOutLimit(), func(e *hostEntry) (HostScan, error) {
		st, ep, err := e.refreshStats()
		return HostScan{Name: e.name, Stats: st, Epoch: ep, Err: err}, err
	})
	for i := range out {
		out[i].Err = errs[i]
	}
	return out
}
