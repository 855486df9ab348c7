package shard

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

var testSecret = []byte("shard-test")

// fabric is a loopback shard fabric: n real memory servers, each with
// its metrics on a registry of its own, plus a client over them with
// test-sized retry budgets.
type fabric struct {
	servers []*memserver.Server
	regs    []*telemetry.Registry
	addrs   []string
	client  *Client
}

func newFabric(t *testing.T, n int, cfg Config) *fabric {
	t.Helper()
	f := &fabric{}
	for i := 0; i < n; i++ {
		srv, reg := memserver.NewServer(testSecret, nil), telemetry.NewRegistry()
		srv.SetMetricsRegistry(reg)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, srv)
		f.regs = append(f.regs, reg)
		f.addrs = append(f.addrs, addr.String())
	}
	t.Cleanup(func() {
		for _, srv := range f.servers {
			srv.Close()
		}
	})
	if cfg.Pool.Resilience.BaseBackoff == 0 {
		cfg.Pool.Resilience = testResilience()
	}
	if cfg.Pool.Size == 0 {
		cfg.Pool.Size = 2
	}
	client, err := Dial(f.addrs, testSecret, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	f.client = client
	return f
}

// testResilience keeps failover fast: one attempt per replica (the
// fabric itself is the retry layer) and millisecond backoffs.
func testResilience() memserver.ResilientConfig {
	return memserver.ResilientConfig{
		MaxRetries:       1,
		MutatingRetries:  1,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		DialTimeout:      2 * time.Second,
		JitterSeed:       7,
	}
}

// testImage builds a mixed zero/compressible/incompressible image big
// enough to span many placement ranges when RangePages is small.
func testImage(t *testing.T, seed uint64, pages int64) *pagestore.Image {
	t.Helper()
	im := pagestore.NewImage(units.Bytes(pages) * units.PageSize)
	r := rng.New(seed)
	page := make([]byte, units.PageSize)
	for pfn := pagestore.PFN(0); int64(pfn) < pages; pfn++ {
		switch r.Int63n(3) {
		case 0:
			continue
		case 1:
			for i := range page {
				page[i] = byte(pfn%250 + 1)
			}
		default:
			for i := 0; i < len(page); i += 8 {
				binary.LittleEndian.PutUint64(page[i:], r.Uint64())
			}
		}
		if err := im.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	return im
}

// readBack fetches every page of the image through the client into a
// fresh image and returns its canonical encoding.
func readBack(t *testing.T, c memserver.Conn, id pagestore.VMID, im *pagestore.Image) []byte {
	t.Helper()
	back := pagestore.NewImage(im.Alloc())
	var batch []pagestore.PFN
	flush := func() {
		if len(batch) == 0 {
			return
		}
		pages, err := c.GetPages(id, batch)
		if err != nil {
			t.Fatalf("GetPages: %v", err)
		}
		for _, pfn := range batch {
			page, ok := pages[pfn]
			if !ok {
				t.Fatalf("GetPages omitted pfn %d", pfn)
			}
			if err := back.Write(pfn, page); err != nil {
				t.Fatal(err)
			}
		}
		batch = batch[:0]
	}
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		batch = append(batch, pfn)
		if len(batch) == 64 {
			flush()
		}
	}
	flush()
	canon, _, err := pagestore.EncodeAll(back)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestShardReassemblyMatchesSingleServer is the tentpole's bit-identity
// proof: an image uploaded through a 3-shard fabric and read back page
// by page re-encodes to exactly the bytes the single-server path holds.
func TestShardReassemblyMatchesSingleServer(t *testing.T) {
	const vmid = pagestore.VMID(71)
	im := testImage(t, 1, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}

	// Single-server reference.
	single := memserver.NewServer(testSecret, nil)
	saddr, err := single.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ref, err := memserver.Dial(network.TCP, saddr.String(), testSecret, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	refIm, err := single.Store().Get(vmid)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(refIm)
	if err != nil {
		t.Fatal(err)
	}

	// 8-page ranges so a 256-page image spreads across all three shards.
	f := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("sharded read-back diverges from the single-server image")
	}

	// No backend holds the whole image (the fabric genuinely sharded),
	// and each holds only what it owns.
	for i, srv := range f.servers {
		shIm, err := srv.Store().Get(vmid)
		if err != nil {
			t.Fatalf("backend %d has no image: %v", i, err)
		}
		if shIm.TouchedPages() >= im.TouchedPages() {
			t.Fatalf("backend %d holds %d/%d pages; nothing was sharded", i, shIm.TouchedPages(), im.TouchedPages())
		}
	}
}

// TestShardStreamImageMatchesPutImage proves the chunked streaming path
// through the fabric installs the same partitions as the one-shot path.
func TestShardStreamImageMatchesPutImage(t *testing.T) {
	const vmid = pagestore.VMID(72)
	im := testImage(t, 2, 192)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	put := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := put.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	stream := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := stream.client.StreamImage(vmid, im.Alloc(), snap, memserver.PutOptions{Streams: 2, ChunkBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, stream.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("streamed shard upload diverges from the source image")
	}
	if got := readBack(t, put.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("one-shot shard upload diverges from the source image")
	}
}

// requestFrames returns the request frames each backend of f has
// handled: every frame after the handshake is one op, whatever its label.
func (f *fabric) requestFrames(t *testing.T) []float64 {
	t.Helper()
	n := make([]float64, len(f.regs))
	for i, reg := range f.regs {
		var text strings.Builder
		if err := reg.WriteText(&text, "oasis_memserver_ops_total"); err != nil {
			t.Fatal(err)
		}
		for _, field := range strings.Fields(text.String()) {
			if v, err := strconv.ParseFloat(field, 64); err == nil {
				n[i] += v
			}
		}
	}
	return n
}

// TestShardOneChunkDiffIsOneFramePerBackend: a diff whose every backend
// part fits one chunk reaches each backend as a single frame, applied
// at once, and the fabric serves the dirtied image.
func TestShardOneChunkDiffIsOneFramePerBackend(t *testing.T) {
	const vmid = pagestore.VMID(74)
	im := testImage(t, 4, 128)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	epoch := im.NextEpoch()
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn += 5 {
		if err := im.Write(pfn, bytes.Repeat([]byte{0xD2}, int(units.PageSize))); err != nil {
			t.Fatal(err)
		}
	}
	diff, _, err := pagestore.EncodeDirtySince(im, epoch)
	if err != nil {
		t.Fatal(err)
	}
	before := f.requestFrames(t)
	if err := f.client.StreamDiff(vmid, diff, memserver.PutOptions{Streams: 2}); err != nil {
		t.Fatal(err)
	}
	for i, n := range f.requestFrames(t) {
		if n-before[i] != 1 {
			t.Errorf("backend %d took %v request frames for its one-chunk part, want 1", i, n-before[i])
		}
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("post-diff read-back diverges from the dirtied image")
	}
}

// TestShardDiff uploads an image, pushes a partitioned differential
// update, and checks the fabric serves the updated contents.
func TestShardDiff(t *testing.T) {
	const vmid = pagestore.VMID(73)
	im := testImage(t, 3, 128)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	epoch := im.NextEpoch()
	dirty := bytes.Repeat([]byte{0xD1}, int(units.PageSize))
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn += 17 {
		if err := im.Write(pfn, dirty); err != nil {
			t.Fatal(err)
		}
	}
	diff, n, err := pagestore.EncodeDirtySince(im, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no dirty pages to diff")
	}
	if err := f.client.PutDiff(vmid, diff); err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("post-diff read-back diverges from the dirtied image")
	}
}

// TestShardSurvivesBackendOutage is the tentpole's failover criterion:
// a 3-shard, 2-replica fabric with one backend killed serves every page
// read with zero failures, and the reassembled image stays byte-exact.
func TestShardSurvivesBackendOutage(t *testing.T) {
	const vmid = pagestore.VMID(74)
	im := testImage(t, 4, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}

	// Kill one shard. Every page range keeps a live replica.
	f.servers[1].Close()

	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("read-back with a dead shard diverges from the source image")
	}
	// Single-page reads (the memtap fault path) fail over too.
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn += 13 {
		page, err := f.client.GetPage(vmid, pfn)
		if err != nil {
			t.Fatalf("GetPage %d with a dead shard: %v", pfn, err)
		}
		wantPage, err := im.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, wantPage) {
			t.Fatalf("page %d diverges after failover", pfn)
		}
	}
	if f.client.BreakerState() == memserver.BreakerOpen {
		t.Fatal("fabric reports fully open with two healthy backends")
	}
	st := f.client.ResilienceStats()
	if st.Failures == 0 {
		t.Fatal("no recorded failures despite a dead backend; failover path untested")
	}
}

// TestShardAllBackendsDown: with every backend gone the fabric fails
// reads with an error (and eventually reports its aggregate breaker
// open) instead of hanging.
func TestShardAllBackendsDown(t *testing.T) {
	const vmid = pagestore.VMID(75)
	im := testImage(t, 5, 32)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 2, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	if _, err := f.client.GetPage(vmid, 0); err == nil {
		t.Fatal("read succeeded against a fully dead fabric")
	}
}

// TestShardStatsAggregates checks the fabric-level Stats roll-up.
func TestShardStatsAggregates(t *testing.T) {
	const vmid = pagestore.VMID(76)
	im := testImage(t, 6, 64)
	snap, pages, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	st, err := f.client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.VMs != 1 {
		t.Fatalf("aggregate VMs = %d, want 1", st.VMs)
	}
	if !st.Serving {
		t.Fatal("aggregate Serving = false for a healthy fabric")
	}
	// Two replicas: the fabric stored each page twice.
	if st.PagesUploaded != int64(2*pages) {
		t.Fatalf("aggregate PagesUploaded = %d, want %d (2 replicas x %d pages)", st.PagesUploaded, 2*pages, pages)
	}
}

// TestShardDelete removes the VM from every backend.
func TestShardDelete(t *testing.T) {
	const vmid = pagestore.VMID(77)
	im := testImage(t, 8, 32)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Delete(vmid); err != nil {
		t.Fatal(err)
	}
	for i, srv := range f.servers {
		if _, err := srv.Store().Get(vmid); err == nil {
			t.Fatalf("backend %d still holds the image after Delete", i)
		}
	}
}
