package experiments

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// The rebalance benchmark quantifies the elastic-fabric claim: growing
// or shrinking the backend set moves only the page ranges whose
// consistent-hash placement changed (~R/(N+1) of the data), not the
// whole corpus, and reads keep succeeding while the copies are in
// flight.

// RebalanceModel is the deterministic half: ring math over a synthetic
// membership counts exactly how many ranges a membership change moves,
// against the naive re-shard that moves everything.
type RebalanceModel struct {
	Backends         int     `json:"backends"`
	Replicas         int     `json:"replicas"`
	Ranges           int     `json:"ranges"`
	MovedOnAdd       int     `json:"ranges_moved_on_add"`
	MovedOnRemove    int     `json:"ranges_moved_on_remove"`
	NaiveMoved       int     `json:"ranges_moved_naive"`
	AddMovedFraction float64 `json:"add_moved_fraction"`
	Speedup          float64 `json:"transfer_reduction_vs_naive"`
}

// RebalancePhase is one measured membership change.
type RebalancePhase struct {
	Action         string  `json:"action"` // "add" or "remove"
	RangesMoved    int     `json:"ranges_moved"`
	BytesMoved     int64   `json:"bytes_moved"`
	Millis         float64 `json:"ms"`
	ThroughputMBps float64 `json:"throughput_mib_per_sec"`
}

// RebalanceMeasured is one measured loopback run: a live fabric grows
// by one backend and then drains one, with a reader sweeping the image
// throughout; zero failed reads, byte-identical readback and full
// replication afterwards are part of the result.
type RebalanceMeasured struct {
	Backends             int              `json:"backends"`
	Replicas             int              `json:"replicas"`
	Pages                int              `json:"pages"`
	RangePages           int              `json:"range_pages"`
	Phases               []RebalancePhase `json:"phases"`
	ReadsDuringRebalance int              `json:"reads_during_rebalance"`
	FailedReads          int              `json:"failed_reads"`
	ByteIdentical        bool             `json:"byte_identical"`
	UnderreplicatedAfter int              `json:"underreplicated_ranges_after"`
	FinalRingVersion     uint64           `json:"final_ring_version"`
}

// RebalanceBench is the full result; oasis-bench -experiment rebalance
// with -json writes it as BENCH_rebalance.json.
type RebalanceBench struct {
	Experiment string `json:"experiment"`
	BenchMeta
	Model    RebalanceModel    `json:"model"`
	Measured RebalanceMeasured `json:"measured_loopback"`
	Note     string            `json:"note"`
}

// rebalanceGeometry: the smallest fabric where one backend can leave
// while every page keeps a live replica, and a 32 MiB image over 64-page
// (256 KiB) ranges = 128 placement ranges, enough for the R/(N+1)
// statistics to hold.
const (
	shardBackends       = 3
	shardReplicas       = 2
	rebalanceRangePages = 64
	rebalanceAllocMiB   = 32
)

// Rebalance runs the elastic-fabric rebalance benchmark.
func Rebalance(opt Option) (RebalanceBench, error) {
	out := RebalanceBench{
		Experiment: "rebalance",
		BenchMeta:  benchMeta(),
		Model:      rebalanceModel(),
		Note:       "model is deterministic ring math; measured_loopback is one run on the build machine",
	}
	meas, err := measureRebalance(opt.Seed)
	if err != nil {
		return RebalanceBench{}, err
	}
	out.Measured = meas
	return out, nil
}

// rebalanceModel counts moved ranges with pure ring arithmetic over a
// fixed synthetic membership, so the numbers are identical on every
// machine.
func rebalanceModel() RebalanceModel {
	addrs := make([]string, shardBackends)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:7070", i+1)
	}
	ring, err := shard.NewRing(addrs, shardReplicas, rebalanceRangePages, 0)
	if err != nil {
		panic(err) // static geometry, cannot fail
	}
	const vmid = pagestore.VMID(4848)
	ranges := int(rebalanceAllocMiB * units.MiB / (rebalanceRangePages * units.PageSize))
	owners := func(r *shard.Ring) [][]string {
		out := make([][]string, ranges)
		for i := range out {
			out[i] = r.OwnerAddrs(vmid, pagestore.PFN(int64(i)*rebalanceRangePages))
		}
		return out
	}
	moved := func(a, b [][]string) int {
		n := 0
		for i := range a {
			if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
				n++
			}
		}
		return n
	}
	base := owners(ring)
	grown, _ := ring.WithBackend("10.0.1.99:7070")
	movedAdd := moved(base, owners(grown))
	shrunk, _ := ring.WithoutBackend(addrs[0])
	movedRemove := moved(base, owners(shrunk))
	frac := float64(movedAdd) / float64(ranges)
	return RebalanceModel{
		Backends:         shardBackends,
		Replicas:         shardReplicas,
		Ranges:           ranges,
		MovedOnAdd:       movedAdd,
		MovedOnRemove:    movedRemove,
		NaiveMoved:       ranges,
		AddMovedFraction: frac,
		Speedup:          float64(ranges) / float64(movedAdd),
	}
}

// measureRebalance stands up a loopback 3-backend fabric, streams a
// seeded image through it, then adds a fourth backend and drains an
// original one — with a reader sweeping pages the whole time — and
// verifies zero failed reads, full replication and byte-identical
// readback afterwards.
func measureRebalance(seed uint64) (RebalanceMeasured, error) {
	secret := []byte("oasis-bench")
	const vmid = pagestore.VMID(4848)
	alloc := rebalanceAllocMiB * units.MiB

	servers := make([]*memserver.Server, shardBackends+1)
	addrs := make([]string, shardBackends+1)
	for i := range servers {
		servers[i] = memserver.NewServer(secret, nil)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			return RebalanceMeasured{}, err
		}
		defer servers[i].Close()
		addrs[i] = addr.String()
	}
	fab, err := shard.Dial(addrs[:shardBackends], secret, shard.Config{
		Replicas:   shardReplicas,
		RangePages: rebalanceRangePages,
		Pool: memserver.PoolConfig{
			Size: 2,
			Resilience: memserver.ResilientConfig{
				Name:             "bench-rebalance",
				MaxRetries:       2,
				MutatingRetries:  2,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       4 * time.Millisecond,
				BreakerThreshold: 4,
				BreakerCooldown:  100 * time.Millisecond,
				DialTimeout:      2 * time.Second,
				JitterSeed:       seed,
			},
		},
	})
	if err != nil {
		return RebalanceMeasured{}, err
	}
	defer fab.Close()

	im := pagestore.NewImage(alloc)
	r := rng.New(seed)
	page := make([]byte, units.PageSize)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if r.Bool(0.25) {
			continue
		}
		for i := 0; i < len(page); i += 8 {
			binary.LittleEndian.PutUint64(page[i:], r.Uint64())
		}
		if err := im.Write(pfn, page); err != nil {
			return RebalanceMeasured{}, err
		}
	}
	snap, pages, err := pagestore.EncodeAll(im)
	if err != nil {
		return RebalanceMeasured{}, err
	}
	if err := fab.StreamImage(vmid, alloc, snap, memserver.PutOptions{Streams: 2}); err != nil {
		return RebalanceMeasured{}, err
	}

	// A reader sweeps random batches for the whole rebalance window;
	// every failure counts against the headline.
	var reads, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr := rng.New(seed ^ 0x5ca1ab1e)
		npages := im.NumPages()
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]pagestore.PFN, 32)
			for i := range batch {
				batch[i] = pagestore.PFN(rr.Int63n(npages))
			}
			reads.Add(int64(len(batch)))
			if _, err := fab.GetPages(vmid, batch); err != nil {
				failed.Add(int64(len(batch)))
			}
		}
	}()

	rangeOwners := func() map[int64]string {
		ring := fab.Ring()
		out := make(map[int64]string)
		for rg := int64(0); rg*rebalanceRangePages < im.NumPages(); rg++ {
			out[rg] = fmt.Sprint(ring.OwnerAddrs(vmid, pagestore.PFN(rg*rebalanceRangePages)))
		}
		return out
	}
	phase := func(action, backend string) (RebalancePhase, error) {
		before := rangeOwners()
		t0 := time.Now()
		var err error
		if action == "add" {
			err = fab.AddBackend(backend)
		} else {
			err = fab.RemoveBackend(backend)
		}
		if err != nil {
			return RebalancePhase{}, err
		}
		if err := fab.WaitRebalance(60 * time.Second); err != nil {
			return RebalancePhase{}, err
		}
		elapsed := time.Since(t0)
		after := rangeOwners()
		moved := 0
		for rg, o := range before {
			if after[rg] != o {
				moved++
			}
		}
		bytes := int64(moved) * rebalanceRangePages * int64(units.PageSize)
		return RebalancePhase{
			Action:         action,
			RangesMoved:    moved,
			BytesMoved:     bytes,
			Millis:         elapsed.Seconds() * 1e3,
			ThroughputMBps: float64(bytes) / float64(units.MiB) / elapsed.Seconds(),
		}, nil
	}

	addPhase, err := phase("add", addrs[shardBackends])
	if err != nil {
		return RebalanceMeasured{}, err
	}
	removePhase, err := phase("remove", addrs[0])
	if err != nil {
		return RebalanceMeasured{}, err
	}
	close(stop)
	wg.Wait()

	// Readback through the new membership must reassemble the exact
	// source snapshot.
	back := pagestore.NewImage(alloc)
	for base := pagestore.PFN(0); int64(base) < im.NumPages(); base += 64 {
		batch := make([]pagestore.PFN, 0, 64)
		for pfn := base; int64(pfn) < im.NumPages() && pfn < base+64; pfn++ {
			batch = append(batch, pfn)
		}
		got, err := fab.GetPages(vmid, batch)
		if err != nil {
			return RebalanceMeasured{}, err
		}
		for _, pfn := range batch {
			if p, ok := got[pfn]; ok {
				if err := back.Write(pfn, p); err != nil {
					return RebalanceMeasured{}, err
				}
			}
		}
	}
	canon, _, err := pagestore.EncodeAll(back)
	if err != nil {
		return RebalanceMeasured{}, err
	}

	return RebalanceMeasured{
		Backends:             shardBackends,
		Replicas:             shardReplicas,
		Pages:                pages,
		RangePages:           rebalanceRangePages,
		Phases:               []RebalancePhase{addPhase, removePhase},
		ReadsDuringRebalance: int(reads.Load()),
		FailedReads:          int(failed.Load()),
		ByteIdentical:        string(canon) == string(snap),
		UnderreplicatedAfter: fab.UnderreplicatedRanges(),
		FinalRingVersion:     fab.RingVersion(),
	}, nil
}

// RebalanceReport renders the benchmark as a plain-text experiment for
// oasis-bench -experiment rebalance.
func RebalanceReport(opt Option) Report {
	var b strings.Builder
	r, err := Rebalance(opt)
	if err != nil {
		fmt.Fprintf(&b, "benchmark failed: %v\n", err)
		return Report{ID: "rebalance", Title: "Elastic fabric rebalance benchmark", Text: b.String()}
	}
	mo := r.Model
	fmt.Fprintf(&b, "modeled movement (%d backends, R=%d, %d ranges, ring math):\n", mo.Backends, mo.Replicas, mo.Ranges)
	fmt.Fprintf(&b, "  add one backend:    %d ranges move (%.1f%%; naive re-shard moves 100%%)\n",
		mo.MovedOnAdd, 100*mo.AddMovedFraction)
	fmt.Fprintf(&b, "  remove one backend: %d ranges move\n", mo.MovedOnRemove)
	fmt.Fprintf(&b, "  transfer reduction vs naive: %.1fx\n", mo.Speedup)
	m := r.Measured
	fmt.Fprintf(&b, "measured on loopback (%d MiB image, %d-page ranges):\n", rebalanceAllocMiB, m.RangePages)
	for _, p := range m.Phases {
		fmt.Fprintf(&b, "  %-6s %3d ranges (%5.1f MiB) in %6.1fms (%.0f MiB/s)\n",
			p.Action, p.RangesMoved, float64(p.BytesMoved)/float64(units.MiB), p.Millis, p.ThroughputMBps)
	}
	fmt.Fprintf(&b, "  %d reads during rebalance: %d failed; byte-identical: %v; underreplicated after: %d (ring v%d)\n",
		m.ReadsDuringRebalance, m.FailedReads, m.ByteIdentical, m.UnderreplicatedAfter, m.FinalRingVersion)
	return Report{ID: "rebalance", Title: "Elastic fabric rebalance benchmark", Text: b.String()}
}
