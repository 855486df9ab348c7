package oasis_test

// Public-API tests: the same surface examples and downstream users see.

import (
	"bytes"
	"testing"
	"time"

	"oasis"
)

func TestSimulateHeadlineResult(t *testing.T) {
	cfg := oasis.DefaultSimConfig()
	cfg.Cluster.Policy = oasis.FulltoPartial
	cfg.TraceSeed = 42
	cfg.Cluster.Seed = 42
	res, err := oasis.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingsPct < 20 || res.SavingsPct > 32 {
		t.Errorf("weekday FulltoPartial savings = %.1f%%, want ~25%%", res.SavingsPct)
	}
	if res.BaselineJoules <= res.OasisJoules {
		t.Error("consolidation used more energy than the baseline")
	}
}

func TestSimulateNAggregates(t *testing.T) {
	cfg := oasis.DefaultSimConfig()
	sum, err := oasis.SimulateN(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Savings.N() != 2 {
		t.Fatalf("aggregated %d runs", sum.Savings.N())
	}
}

func TestMigrationModels(t *testing.T) {
	micro := oasis.MicroBenchModel()
	full := micro.FullMigration(4*oasis.GiB, false)
	if s := full.Latency.Seconds(); s < 39 || s > 43 {
		t.Errorf("micro full migration = %.1fs", s)
	}
	rack := oasis.ClusterModel()
	full = rack.FullMigration(4*oasis.GiB, false)
	if s := full.Latency.Seconds(); s < 9 || s > 11 {
		t.Errorf("rack full migration = %.1fs", s)
	}
}

func TestPowerProfiles(t *testing.T) {
	p := oasis.DefaultPowerProfile()
	if p.SleepW+p.MemServerW >= p.IdleW {
		t.Error("sleeping host + memory server should undercut an idle host")
	}
	lin := oasis.LinearPowerProfile()
	if lin.VMHostingW != 0 {
		t.Error("linear profile still has a flat hosting rate")
	}
}

// TestFunctionalRoundTrip drives the public functional layer: a memory
// server, an uploaded image, a partial VM faulting through a memtap, and
// a differential update.
func TestFunctionalRoundTrip(t *testing.T) {
	secret := []byte("public-api-test")
	srv := oasis.NewMemServer(secret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	alloc := 8 * oasis.MiB
	im := oasis.NewImage(alloc)
	payload := bytes.Repeat([]byte{0x5C}, int(oasis.PageSize))
	if err := im.Write(100, payload); err != nil {
		t.Fatal(err)
	}
	snap, _, err := oasis.EncodeImage(im)
	if err != nil {
		t.Fatal(err)
	}
	client, err := oasis.Dial(addr.String(), secret, oasis.WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.PutImage(77, alloc, snap); err != nil {
		t.Fatal(err)
	}

	mt, err := oasis.NewMemtap(77, addr.String(), secret)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	desc := oasis.NewVMDescriptor(77, "api-test", alloc, 1)
	pvm, err := oasis.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pvm.Read(100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("faulted page mismatch")
	}
	if mt.Faults() != 1 {
		t.Fatalf("faults = %d", mt.Faults())
	}

	// Differential update via the public API.
	epoch := im.Epoch() - 1
	if err := im.Write(101, payload); err != nil {
		t.Fatal(err)
	}
	diff, n, err := oasis.EncodeImageDiff(im, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty diff")
	}
	if err := client.PutDiff(77, diff); err != nil {
		t.Fatal(err)
	}
}

func TestTraceGeneration(t *testing.T) {
	set := oasis.GenerateTrace(oasis.Weekday, 300, 9)
	if len(set.Days) != 300 {
		t.Fatalf("generated %d days", len(set.Days))
	}
	peak, _ := set.PeakActive()
	if peak == 0 || peak > 300 {
		t.Fatalf("peak = %d", peak)
	}
	ws := oasis.SampleWorkingSet(5)
	if ws < 16*oasis.MiB || ws > oasis.GiB {
		t.Fatalf("working set = %v", ws)
	}
}

func TestClusterConstruction(t *testing.T) {
	s := oasis.NewSimulator()
	cfg := oasis.DefaultClusterConfig()
	cfg.HomeHosts = 2
	cfg.ConsHosts = 1
	cfg.VMsPerHost = 4
	cl, err := oasis.NewCluster(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.VMs) != 8 || len(cl.Hosts) != 3 {
		t.Fatalf("cluster sized %d VMs / %d hosts", len(cl.VMs), len(cl.Hosts))
	}
	if cl.PoweredHosts() == 0 {
		t.Fatal("no powered hosts after construction")
	}
}
