package shard

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/memserver"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// sparseImage touches every seventh page of a 16-MiB guest (four default
// placement ranges, so a fabric genuinely shards it) with a mix of
// written-zero, compressible and incompressible pages.
func sparseImage(t *testing.T, seed uint64) *pagestore.Image {
	t.Helper()
	im := pagestore.NewImage(16 * units.MiB)
	r := rng.New(seed)
	page := make([]byte, units.PageSize)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn += 7 {
		switch pfn % 3 {
		case 0:
			if err := im.Write(pfn, nil); err != nil {
				t.Fatal(err)
			}
			continue
		case 1:
			for i := range page {
				page[i] = byte(pfn%250 + 1)
			}
		default:
			for i := range page {
				page[i] = byte(r.Uint64())
			}
		}
		if err := im.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	return im
}

func encodeAll(t *testing.T, im *pagestore.Image) []byte {
	t.Helper()
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestConnConformance runs one behavioural contract against every client
// shape Connect can return. Whatever the shape, a memserver.Conn must
// round-trip images and diffs byte-exactly, stream to the same result as
// a one-shot upload, report a refusal as a refusal, and delete
// idempotently.
func TestConnConformance(t *testing.T) {
	res := testResilience()
	res.MaxRetries, res.MutatingRetries = 3, 3
	for _, shape := range []struct {
		name    string
		servers int
		target  Target
		want    string // concrete type Connect must pick
	}{
		{"one-lane pool", 1, Target{Resilience: &res}, "*memserver.ClientPool"},
		{"four-lane pool", 1, Target{Resilience: &res, Lanes: 4}, "*memserver.ClientPool"},
		{"fabric r=2", 3, Target{Resilience: &res, Lanes: 2, Replicas: 2}, "*shard.Client"},
	} {
		t.Run(shape.name, func(t *testing.T) {
			var servers []*memserver.Server
			var addrs []string
			for i := 0; i < shape.servers; i++ {
				srv := memserver.NewServer(testSecret, nil)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				servers = append(servers, srv)
				addrs = append(addrs, addr.String())
			}
			target := shape.target
			if shape.servers == 1 {
				target.Addr = addrs[0]
			} else {
				target.Backends = addrs
			}
			conn, err := Connect(target, testSecret)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if got := fmt.Sprintf("%T", conn); got != shape.want {
				t.Fatalf("Connect picked a %s, want a %s", got, shape.want)
			}
			if pool, ok := conn.(*memserver.ClientPool); ok && pool.Size() != max(target.Lanes, 1) {
				t.Fatalf("pool has %d lanes, want %d", pool.Size(), max(target.Lanes, 1))
			}
			// stored is what the tier holds for a VM, canonically
			// encoded: read back through the Conn, and for a single
			// server cross-checked against the store itself.
			stored := func(id pagestore.VMID, im *pagestore.Image) []byte {
				t.Helper()
				got := readBack(t, conn, id, im)
				if len(servers) == 1 {
					held, err := servers[0].Store().Get(id)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encodeAll(t, held), got) {
						t.Fatalf("vm %d: pages read back differ from the server's store", id)
					}
				}
				return got
			}

			// Image, then a diff with a page zeroed, each read back exact.
			const vm = pagestore.VMID(300)
			im := sparseImage(t, 5)
			alloc := im.Alloc()
			snap := encodeAll(t, im)
			if err := conn.PutImage(vm, alloc, snap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored(vm, im), snap) {
				t.Fatal("image read back differs from the source")
			}
			epoch := im.NextEpoch()
			pattern := bytes.Repeat([]byte{0xC3}, int(units.PageSize))
			for _, pfn := range []pagestore.PFN{0, 8, 1500, 2048, 4095} {
				if err := im.Write(pfn, pattern); err != nil {
					t.Fatal(err)
				}
			}
			if err := im.Write(7, nil); err != nil {
				t.Fatal(err)
			}
			diff, _, err := pagestore.EncodeDirtySince(im, epoch)
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.PutDiff(vm, diff); err != nil {
				t.Fatal(err)
			}
			afterDiff := stored(vm, im)
			if !bytes.Equal(afterDiff, encodeAll(t, im)) {
				t.Fatal("image read back after the diff differs from the source")
			}

			// The staged fetch is the plain fetch plus timings.
			for _, pfn := range []pagestore.PFN{0, 7, 8, 14, 4095} {
				plain, err := conn.GetPage(vm, pfn)
				if err != nil {
					t.Fatal(err)
				}
				staged, wire, decompress, err := conn.GetPageStaged(vm, pfn)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(plain, staged) {
					t.Fatalf("pfn %d: GetPageStaged page differs from GetPage", pfn)
				}
				if wire < 0 || decompress < 0 {
					t.Fatalf("pfn %d: stage times wire=%v decompress=%v", pfn, wire, decompress)
				}
			}

			// Streaming, at any width and with chunks small enough to
			// need dozens of them, lands what the one-shot upload lands.
			full := encodeAll(t, im)
			for i, streams := range []int{0, 1, 4} {
				id := vm + 1 + pagestore.VMID(i)
				opts := memserver.PutOptions{Streams: streams, ChunkBytes: 8 * int(units.PageSize)}
				if err := conn.StreamImage(id, alloc, full, opts); err != nil {
					t.Fatalf("StreamImage(streams=%d): %v", streams, err)
				}
				if !bytes.Equal(stored(id, im), afterDiff) {
					t.Fatalf("StreamImage(streams=%d) diverges from PutImage+PutDiff", streams)
				}
			}
			for i, streams := range []int{1, 3} {
				id := vm + 10 + pagestore.VMID(i)
				if err := conn.PutImage(id, alloc, snap); err != nil {
					t.Fatal(err)
				}
				opts := memserver.PutOptions{Streams: streams, ChunkBytes: 2 * int(units.PageSize)}
				if err := conn.StreamDiff(id, diff, opts); err != nil {
					t.Fatalf("StreamDiff(streams=%d): %v", streams, err)
				}
				if !bytes.Equal(stored(id, im), afterDiff) {
					t.Fatalf("StreamDiff(streams=%d) diverges from PutDiff", streams)
				}
			}

			// A VM the tier does not hold is a refusal from a healthy
			// server: recognisable as such, and not worth a retry.
			retries := func() int64 {
				if rs, ok := conn.(interface {
					ResilienceStats() memserver.ResilienceStats
				}); ok {
					return rs.ResilienceStats().Retries
				}
				return 0
			}
			before := retries()
			_, err = conn.GetPage(999, 0)
			if !memserver.IsRemoteError(err) || !memserver.IsUnknownVM(err) {
				t.Fatalf("GetPage of an absent VM: %v, want a remote unknown-VM error", err)
			}
			if got := retries(); got != before {
				t.Fatalf("a remote error burned %d retries", got-before)
			}

			// Delete is "make sure it is gone": twice is as good as once.
			for n := 0; n < 2; n++ {
				if err := conn.Delete(vm); err != nil {
					t.Fatalf("Delete #%d: %v", n+1, err)
				}
			}
			if _, err := conn.GetPage(vm, 0); !memserver.IsUnknownVM(err) {
				t.Fatalf("GetPage after Delete: %v, want unknown VM", err)
			}
		})
	}
}

// countingNetwork is TCP with every dial counted.
type countingNetwork struct{ dials atomic.Int64 }

func (n *countingNetwork) Dial(addr string, deadline time.Time) (net.Conn, error) {
	n.dials.Add(1)
	return network.TCP.Dial(addr, deadline)
}

func (n *countingNetwork) Listen(addr string) (net.Listener, error) { return network.TCP.Listen(addr) }

// TestOneNetworkReachesEveryShape: the network a Target names carries
// every connection of every shape Connect can return (each connection
// the servers accept was dialed through it), and a dial failure that
// network injects surfaces from each shape.
func TestOneNetworkReachesEveryShape(t *testing.T) {
	res := testResilience()
	for _, shape := range []struct {
		name    string
		servers int
		target  Target
	}{
		{"one-lane pool", 1, Target{Resilience: &res}},
		{"four-lane pool", 1, Target{Resilience: &res, Lanes: 4}},
		{"fabric r=2", 3, Target{Resilience: &res, Lanes: 2, Replicas: 2}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			var accepted atomic.Int64
			var addrs []string
			for i := 0; i < shape.servers; i++ {
				srv := memserver.NewServer(testSecret, nil)
				srv.SetConnWrapper(func(c net.Conn) net.Conn {
					accepted.Add(1)
					return c
				})
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				addrs = append(addrs, addr.String())
			}
			counted := &countingNetwork{}
			refuse := faultinject.New(1, faultinject.Config{DialFail: 1})
			refuse.SetEnabled(false)
			target := shape.target
			target.Network = refuse.Network(counted)
			if shape.servers == 1 {
				target.Addr = addrs[0]
			} else {
				target.Backends = addrs
			}

			conn, err := Connect(target, testSecret)
			if err != nil {
				t.Fatal(err)
			}
			const vm = pagestore.VMID(310)
			im := sparseImage(t, 11)
			if err := conn.PutImage(vm, im.Alloc(), encodeAll(t, im)); err != nil {
				t.Fatal(err)
			}
			readBack(t, conn, vm, im)
			// Concurrent reads, so a pool opens more than one lane.
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for pfn := pagestore.PFN(0); pfn < 4096; pfn += 512 {
						if _, err := conn.GetPage(vm, pfn); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			conn.Close()
			if d := counted.dials.Load(); d < int64(shape.servers) {
				t.Fatalf("%d dials through the target's network for %d servers", d, shape.servers)
			}
			waitFor(t, 5*time.Second, "every accepted connection to be one the network dialed", func() bool {
				return accepted.Load() == counted.dials.Load()
			})

			refuse.SetEnabled(true)
			if c, err := Connect(target, testSecret); !errors.Is(err, faultinject.ErrInjected) {
				if c != nil {
					c.Close()
				}
				t.Fatalf("Connect with every dial refused: %v, want the network's injected failure", err)
			}
		})
	}
}
