package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"oasis"
	"oasis/internal/lzf"
	"oasis/internal/simtime"
	"oasis/internal/telemetry"
)

// The direct probes time calls into one layer's public functions on the
// inputs the seed generates, after the workloads' timed phases. Each
// writes its layer's metrics into out.

// perOp runs fn for at least n calls and 20 ms, and returns ns per call.
func perOp(n int, fn func()) float64 {
	calls := 0
	start := time.Now()
	for calls < n || time.Since(start) < 20*time.Millisecond {
		fn()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// medianOp returns the median time of n calls of fn, in ns. It is for
// calls long enough to time one by one (a whole snapshot, a cell-day):
// such a call allocates enough to run into a GC cycle now and then, and a
// mean over a few calls would mostly measure whether it did.
func medianOp(n int, fn func()) float64 {
	each := make([]float64, n)
	for i := range each {
		t0 := time.Now()
		fn()
		each[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(each)
}

// mallocs returns the heap allocations and bytes fn makes.
func mallocs(fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// pagesOf returns up to n of the image's pages of one class.
func pagesOf(img *desktopImage, class pageClass, n int) [][]byte {
	var out [][]byte
	for _, pfn := range img.touched {
		if img.class[pfn] == class {
			if out = append(out, img.page(pfn)); len(out) == n {
				break
			}
		}
	}
	return out
}

func probeLZF(img *desktopImage, out map[string]float64) error {
	dst := make([]byte, 0, lzf.CompressBound(pageSize))
	i := 0
	each := func(pages [][]byte) float64 {
		return perOp(len(pages), func() {
			dst = lzf.Compress(dst[:0], pages[i%len(pages)])
			i++
		})
	}
	compressible, random := pagesOf(img, classCompressible, 512), pagesOf(img, classRandom, 512)
	out["lzf.compress_ns_per_page"] = each(compressible)
	out["lzf.compress_raw_ns_per_page"] = each(random)

	packed := make([][]byte, len(compressible))
	in, outBytes := 0, 0
	for k, p := range compressible {
		packed[k] = lzf.Compress(nil, p)
		in, outBytes = in+len(p), outBytes+len(packed[k])
	}
	out["lzf.ratio"] = float64(in) / float64(outBytes)

	page := make([]byte, 0, pageSize)
	var derr error
	out["lzf.decompress_ns_per_page"] = perOp(len(packed), func() {
		if _, err := lzf.Decompress(page[:0], packed[i%len(packed)], pageSize); err != nil {
			derr = err
		}
		i++
	})
	objects, _ := mallocs(func() {
		for _, p := range compressible {
			dst = lzf.Compress(dst[:0], p)
		}
	})
	out["lzf.allocs_per_page"] = objects / float64(len(compressible))
	return derr
}

// probePagestore times ApplySnapshot, which no workload calls from the
// client side, and counts encode allocations. (PartitionSnapshot needs the
// fabric's ring: fabricR2.layers probes it.)
func probePagestore(img *desktopImage, out map[string]float64) error {
	im, err := img.image()
	if err != nil {
		return err
	}
	var snap []byte
	var pages int
	_, allocBytes := mallocs(func() { snap, pages, err = oasis.EncodeImage(im) })
	if err != nil {
		return err
	}
	out["pagestore.encode_alloc_bytes_per_page"] = allocBytes / float64(pages)

	out["pagestore.apply_ns_per_page"] = medianOp(7, func() {
		if e := oasis.ApplySnapshot(oasis.NewImage(img.alloc), snap); e != nil {
			err = e
		}
	}) / float64(pages)
	return err
}

// nullPager serves zero pages; the hypervisor probes never fault.
type nullPager struct{}

func (nullPager) FetchPage(oasis.VMID, oasis.PFN) ([]byte, error) { return make([]byte, pageSize), nil }

func probeHypervisor(img *desktopImage, out map[string]float64) error {
	desc := oasis.NewVMDescriptor(benchVM, "probe", img.alloc, 1)
	var pvm *oasis.PartialVM
	var err error
	install := func() {
		if pvm, err = oasis.NewPartialVM(desc, nullPager{}); err != nil {
			return
		}
		// Every other touched page, so the absent scan below has work.
		for i := 0; i < len(img.touched); i += 2 {
			if _, e := pvm.Install(img.touched[i], img.page(img.touched[i])); e != nil {
				err = e
			}
		}
	}
	out["hypervisor.install_ns_per_page"] = medianOp(7, install) / float64((len(img.touched)+1)/2)
	if err != nil {
		return err
	}
	out["hypervisor.absent_scan_ns_per_kpage"] = perOp(16, func() { pvm.AbsentPagesFrom(0, 0) }) /
		(float64(img.npages()) / 1000)

	dirty := img.touched[:min(512, len(img.touched))]
	for _, pfn := range dirty {
		if err := pvm.Write(pfn, img.page(pfn)); err != nil {
			return err
		}
	}
	out["hypervisor.dirty_snapshot_ns_per_page"] = medianOp(7, func() {
		if _, _, e := pvm.DirtySnapshot(); e != nil {
			err = e
		}
	}) / float64(len(dirty))
	return err
}

// knobs parses transport flag strings the way the daemons do. A knob a
// later change deletes makes its probe report absent instead of breaking
// the build.
func knobs(args ...string) (oasis.Transport, bool) {
	var t oasis.Transport
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	oasis.BindTransportFlags(fs, &t)
	return t, fs.Parse(args) == nil
}

// probeKnobs measures the two parallel transports at one lane per CPU:
// streamed upload and pooled prefetch. absent is the value reported when
// the knob no longer parses.
func probeKnobs(e *env, img *desktopImage, out map[string]float64) error {
	const absent = -1
	out["memserver.stream_image_pages_per_s"] = absent
	out["memtap.prefetch_pooled_pages_per_s"] = absent
	n := fmt.Sprint(runtime.NumCPU())

	srv, err := startServer(&env{})
	if err != nil {
		return err
	}
	defer srv.close()
	im, err := img.image()
	if err != nil {
		return err
	}
	snap, pages, err := oasis.EncodeImage(im)
	if err != nil {
		return err
	}

	if t, ok := knobs("-pool", n, "-upload-streams", n); ok {
		conn, err := oasis.Dial(srv.addr, secret, oasis.WithTransport(t))
		if err != nil {
			return err
		}
		ns := medianOp(5, func() {
			if e := conn.StreamImage(benchVM, img.alloc, snap, oasis.UploadOptions{Streams: t.UploadStreams}); e != nil {
				err = e
			}
		})
		conn.Close()
		if err != nil {
			return err
		}
		out["memserver.stream_image_pages_per_s"] = float64(pages) / (ns / 1e9)
	} else {
		conn, err := oasis.Dial(srv.addr, secret)
		if err != nil {
			return err
		}
		err = conn.PutImage(benchVM, img.alloc, snap)
		conn.Close()
		if err != nil {
			return err
		}
	}

	out["memtap.new_us"] = perOp(8, func() {
		mt, e := oasis.NewMemtapWithOptions(benchVM, srv.addr, secret, oasis.MemtapOptions{})
		if e != nil {
			err = e
			return
		}
		mt.Close()
	}) / 1e3
	if err != nil {
		return err
	}

	if t, ok := knobs("-pool", n, "-prefetch-streams", n); ok {
		var rates []float64
		for i := 0; i < 3; i++ {
			mt, err := oasis.NewMemtapWithOptions(benchVM, srv.addr, secret,
				oasis.MemtapOptions{PoolSize: t.PoolSize, PrefetchStreams: t.PrefetchStreams})
			if err != nil {
				return err
			}
			pvm, err := oasis.NewPartialVM(oasis.NewVMDescriptor(benchVM, "probe", img.alloc, 1), mt)
			if err != nil {
				mt.Close()
				return err
			}
			t0 := time.Now()
			installed, err := mt.PrefetchRemaining(pvm, e.sz.prefetchBatch)
			d := time.Since(t0)
			mt.Close()
			if err != nil {
				return err
			}
			rates = append(rates, float64(installed)/d.Seconds())
		}
		out["memtap.prefetch_pooled_pages_per_s"] = median(rates)
	}
	return nil
}

// probeSim times the simulator's layers on one default cell: user-day
// generation, a cluster driven tick by tick, one Simulate call, and fleet
// runs at one and two workers.
func probeSim(e *env, out map[string]float64) error {
	cell := oasis.DefaultClusterConfig()
	users := cell.HomeHosts * cell.VMsPerHost

	days := make([]oasis.UserDay, users)
	out["trace.user_day_ns"] = perOp(1, func() {
		for u := range days {
			days[u] = oasis.TraceUserDay(oasis.Weekday, e.seed, uint64(u))
		}
	}) / float64(users)

	cell.Seed = e.seed
	cell.NoTelemetry = true
	clock := oasis.NewSimulator()
	cl, err := oasis.NewCluster(clock, cell)
	if err != nil {
		return err
	}
	active := make([]bool, len(cl.VMs))
	intervals := len(days[0].Active)
	step := simtime.Day / simtime.Time(intervals)
	var ticks []float64
	for iv := 0; iv < intervals; iv++ {
		clock.RunUntil(simtime.Time(iv) * step)
		for i := range active {
			active[i] = days[i%users].Active[iv]
		}
		t0 := time.Now()
		if err := cl.Tick(active); err != nil {
			return err
		}
		ticks = append(ticks, float64(time.Since(t0).Nanoseconds()))
	}
	clock.RunUntil(simtime.Day)
	cl.FlushEpisodes()
	out["cluster.tick_us"] = median(ticks) / 1e3
	out["cluster.planner_picks"] = float64(cl.Planner.Picks)
	out["cluster.planner_candidates"] = float64(cl.Planner.Candidates)
	migrations := int64(0)
	for _, n := range cl.Stats.Ops {
		migrations += n
	}
	out["cluster.migrations"] = float64(migrations)

	simCfg := oasis.DefaultSimConfig()
	simCfg.TraceSeed = e.seed
	simCfg.Cluster.NoTelemetry = true
	cellMs := medianOp(5, func() {
		if _, e := oasis.Simulate(simCfg); e != nil {
			err = e
		}
	}) / 1e6
	if err != nil {
		return err
	}
	out["sim.cell_ms"] = cellMs

	var wall [fleetWorkers + 1]float64 // seconds, by worker count
	cfg := fleetConfig(e.seed, 2*e.sz.setupUsers, 1)
	for workers := 1; workers <= fleetWorkers; workers++ {
		cfg.Workers = workers
		var allocBytes float64
		t0 := time.Now()
		_, allocBytes = mallocs(func() { _, err = oasis.SimulateFleet(cfg) })
		wall[workers] = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		out["sim.alloc_bytes_per_user"] = allocBytes / float64(cfg.Users)
	}
	out["sim.worker_scaling"] = wall[1] / wall[fleetWorkers]
	out["sim.fleet_overhead_share"] = 1 - float64(cfg.Cells())*cellMs/1e3/(fleetWorkers*wall[fleetWorkers])
	return nil
}

func probeTelemetry(out map[string]float64) {
	c := telemetry.NewRegistry().Counter("bench_probe_total", "probe")
	out["telemetry.counter_inc_ns"] = perOp(1<<16, c.Inc)
	tr := telemetry.NewTracer(256)
	out["telemetry.span_ns"] = perOp(1<<14, func() {
		s := tr.Start("fault")
		s.Stage("tap_lookup")
		s.Stage("remote_fetch")
		s.End()
	})
}
