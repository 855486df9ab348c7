// Command memtapctl exercises a running memserverd the way a host agent
// and memtap do: it uploads a synthetic VM memory image, creates a partial
// VM from its descriptor, faults pages back on demand, pushes a
// differential update, and reports round-trip statistics.
//
// Example:
//
//	memserverd -listen 127.0.0.1:7070 -secret changeme &
//	memtapctl  -server 127.0.0.1:7070 -secret changeme -mem 64MiB -touch 2000
//
// It doubles as the fabric admin client for a running oasis-agentd:
// -agent plus one of -fabric-add / -fabric-remove / -fabric-status
// applies a live shard-fabric membership change (or inspects the
// fabric) through the agent's RPC surface instead of running the demo:
//
//	memtapctl -agent 127.0.0.1:8100 -fabric-add    127.0.0.1:7073 -fabric-wait
//	memtapctl -agent 127.0.0.1:8100 -fabric-remove 127.0.0.1:7071 -fabric-wait
//	memtapctl -agent 127.0.0.1:8100 -fabric-status
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"oasis"
	"oasis/internal/agent"
	"oasis/internal/rng"
	"oasis/internal/wire"
)

func main() {
	var (
		server   = flag.String("server", "127.0.0.1:7070", "memserverd address (ignored when -backends selects a shard fabric)")
		secret   = flag.String("secret", "", "shared authentication secret (required)")
		memMiB   = flag.Int("mem", 64, "VM memory size in MiB")
		touched  = flag.Int("touch", 1000, "pages to fault in on demand")
		vmid     = flag.Uint("vmid", 1234, "VM identifier")
		seed     = flag.Uint64("seed", 1, "seed for synthetic page contents")
		prefetch = flag.Bool("prefetch", false, "after touching, prefetch the remaining state (partial→full conversion, §4.4.4)")
		retries  = flag.Int("retries", 8, "page-fetch attempts before the memtap reports the fault (riding out chaos downtime)")

		agentAddr    = flag.String("agent", "", "oasis-agentd RPC address for fabric admin commands (enables -fabric-*)")
		fabricAdd    = flag.String("fabric-add", "", "add this memory-server backend to the agent's shard fabric and rebalance")
		fabricRemove = flag.String("fabric-remove", "", "drain this backend out of the agent's shard fabric")
		fabricStatus = flag.Bool("fabric-status", false, "print the agent's fabric status (ring epoch, backend health, rebalance progress)")
		fabricWait   = flag.Bool("fabric-wait", false, "block until the membership change's rebalance settles")
	)
	// -pool, -prefetch-streams, -upload-streams, -backends and -replicas
	// come from the shared transport binding all the daemons use.
	transport := oasis.Transport{PoolSize: 1, PrefetchStreams: 1, UploadStreams: 1}
	oasis.BindTransportFlags(flag.CommandLine, &transport)
	flag.Parse()
	if *agentAddr != "" {
		fabricAdmin(*agentAddr, *fabricAdd, *fabricRemove, *fabricStatus, *fabricWait)
		return
	}
	if *fabricAdd != "" || *fabricRemove != "" || *fabricStatus {
		log.Fatal("memtapctl: -fabric-* commands need -agent <rpc-addr>")
	}
	if *secret == "" {
		log.Fatal("memtapctl: -secret is required")
	}
	alloc := oasis.Bytes(*memMiB) * oasis.MiB
	id := oasis.VMID(*vmid)

	// Build a synthetic "home host" memory image: sparse pages with
	// recognisable contents.
	r := rng.New(*seed)
	im := oasis.NewImage(alloc)
	pages := im.NumPages()
	for pfn := int64(0); pfn < pages; pfn++ {
		if r.Bool(0.5) {
			continue // leave half the pages zero, like real guests
		}
		page := bytes.Repeat([]byte{byte(pfn%251 + 1)}, int(oasis.PageSize))
		if err := im.Write(oasis.PFN(pfn), page); err != nil {
			log.Fatal(err)
		}
	}

	// A generous breaker budget: this tool is a connectivity demo, so it
	// should keep retrying through injected storms rather than declare
	// the server down the way an agent's memtap would. Name labels each
	// client's oasis_client_* metrics in the shared registry.
	rcfg := func(name string, jitter uint64) oasis.ResilienceConfig {
		return oasis.ResilienceConfig{
			Name:             name,
			MaxRetries:       *retries,
			MutatingRetries:  *retries,
			BreakerThreshold: 4 * *retries,
			JitterSeed:       jitter,
		}
	}

	// Upload the image (the host's pre-suspend upload, §4.3) through the
	// one Dial entry point: the options pick the transport shape — one
	// resilient connection, a pool of -upload-streams connections, or the
	// sharded fabric when -backends is set — and the same MemConn calls
	// work against all of them; the server-side image is identical
	// either way.
	upOpts := []oasis.DialOption{oasis.WithResilience(rcfg("upload", *seed+1))}
	switch {
	case transport.Sharded():
		upOpts = append(upOpts,
			oasis.WithBackends(transport.Backends...),
			oasis.WithReplicas(transport.Replicas),
			oasis.WithPool(transport.UploadStreams))
	case transport.UploadStreams > 1:
		upOpts = append(upOpts, oasis.WithPool(transport.UploadStreams))
	}
	client, err := oasis.Dial(*server, []byte(*secret), upOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	snap, n, err := oasis.EncodeImage(im)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := client.StreamImage(id, alloc, snap, oasis.UploadOptions{Streams: transport.UploadStreams}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded image: %d pages, %d bytes compressed (%.1fx) in %v (%d upload streams)\n",
		n, len(snap), float64(n)*float64(oasis.PageSize)/float64(len(snap)), time.Since(start), max(transport.UploadStreams, 1))

	// Create a partial VM from the descriptor and fault pages on demand
	// through a real memtap.
	desc := oasis.NewVMDescriptor(id, "memtapctl-demo", alloc, 1)
	mcfg := rcfg("memtap", *seed)
	mt, err := oasis.NewMemtapWithOptions(id, *server, []byte(*secret), oasis.MemtapOptions{
		Resilience:      &mcfg,
		PoolSize:        transport.PoolSize,
		PrefetchStreams: transport.PrefetchStreams,
		Backends:        transport.Backends,
		Replicas:        transport.Replicas,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mt.Close()
	pvm, err := oasis.NewPartialVM(desc, mt)
	if err != nil {
		log.Fatal(err)
	}
	nTouch := int64(*touched)
	if nTouch > pages {
		nTouch = pages
	}
	start = time.Now()
	// Page-table frames (pfn < PageTablePages) travel with the descriptor
	// and read back as fresh frames, not guest data — verify only pageable
	// memory.
	ptPages := desc.PageTablePages
	for i := int64(0); i < nTouch; i++ {
		pfn := oasis.PFN(ptPages + r.Int63n(pages-ptPages))
		want, err := im.Read(pfn)
		if err != nil {
			log.Fatal(err)
		}
		got, err := pvm.Read(pfn)
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("page %d mismatch after on-demand fetch", pfn)
		}
	}
	fmt.Printf("touched %d pages: %d faults serviced, mean latency %v\n",
		nTouch, mt.Faults(), mt.MeanLatency())
	// The fault-path tracer records in this process (where the memtap
	// runs), so show a sample here — a memserverd /traces scrape is empty.
	fmt.Println("newest fault spans (stage split):")
	if err := oasis.WriteFaultTraces(os.Stdout, 3); err != nil {
		log.Fatal(err)
	}

	if *prefetch {
		start = time.Now()
		n, err := mt.PrefetchRemaining(pvm, 512)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prefetched %d remaining pages in %v; VM is now full (%d/%d present)\n",
			n, time.Since(start), pvm.PresentPages(), pages)
	}

	// Differential upload: dirty a few pages and push only the delta.
	epoch := im.NextEpoch()
	for i := 0; i < 16; i++ {
		pfn := oasis.PFN(r.Int63n(pages))
		if err := im.Write(pfn, bytes.Repeat([]byte{0xD1}, int(oasis.PageSize))); err != nil {
			log.Fatal(err)
		}
	}
	diff, dn, err := oasis.EncodeImageDiff(im, epoch)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.StreamDiff(id, diff, oasis.UploadOptions{Streams: transport.UploadStreams}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("differential upload: %d dirty pages, %d bytes\n", dn, len(diff))

	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server stats: %d VMs, %d pages served (%v), %d pages uploaded\n",
		stats.VMs, stats.PagesServed, stats.BytesServed, stats.PagesUploaded)

	// Report what the fault path actually did (all zeros against a
	// healthy server) straight from the live registry — the same values
	// a -metrics-addr scrape would show, so the two cannot drift.
	fmt.Printf("resilience (oasis_client_*, degraded %v):\n", mt.Degraded())
	if err := oasis.WriteMetricsText(os.Stdout, "oasis_client_"); err != nil {
		log.Fatal(err)
	}
	if transport.Sharded() {
		fmt.Println("shard fabric (oasis_shard_*):")
		if err := oasis.WriteMetricsText(os.Stdout, "oasis_shard_"); err != nil {
			log.Fatal(err)
		}
	}
}

// fabricAdmin runs one fabric admin command against a live agent and
// exits: add/remove a backend (optionally waiting for the triggered
// rebalance to settle) or print the fabric status.
func fabricAdmin(agentAddr, add, remove string, status, wait bool) {
	if add != "" && remove != "" {
		log.Fatal("memtapctl: -fabric-add and -fabric-remove are mutually exclusive")
	}
	c, err := wire.Dial(agentAddr)
	if err != nil {
		log.Fatalf("memtapctl: dial agent: %v", err)
	}
	defer c.Close()
	switch {
	case add != "":
		if err := c.Call("Agent.FabricAddBackend", agent.FabricBackendArgs{Addr: add, Wait: wait}, nil); err != nil {
			log.Fatalf("memtapctl: fabric add %s: %v", add, err)
		}
		fmt.Printf("backend %s added (wait=%v)\n", add, wait)
	case remove != "":
		if err := c.Call("Agent.FabricRemoveBackend", agent.FabricBackendArgs{Addr: remove, Wait: wait}, nil); err != nil {
			log.Fatalf("memtapctl: fabric remove %s: %v", remove, err)
		}
		fmt.Printf("backend %s removed (wait=%v)\n", remove, wait)
	case status:
		var reply agent.FabricStatusReply
		if err := c.Call("Agent.FabricStatus", nil, &reply); err != nil {
			log.Fatalf("memtapctl: fabric status: %v", err)
		}
		out, err := json.MarshalIndent(reply, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	default:
		log.Fatal("memtapctl: -agent needs one of -fabric-add, -fabric-remove, -fabric-status")
	}
}
