// Package oasis is a from-scratch reproduction of the system described in
// "Oasis: Energy Proportionality with Hybrid Server Consolidation"
// (Zhi, Bila, de Lara — EuroSys 2016).
//
// Oasis densely consolidates virtual machines to let idle servers sleep:
// idle VMs are migrated *partially* — only their working set moves, with
// the rest of their memory served on demand by a low-power per-host
// memory server while the home host sleeps in ACPI S3 — and active VMs
// are migrated *fully* with pre-copy live migration so that hosts are
// freed of the VMs that would otherwise prevent sleep.
//
// The package exposes three layers:
//
//   - A functional layer: a real TCP memory page server with per-page
//     compression, differential upload and HMAC authentication
//     (NewMemServer/Dial), the memtap pager that services page
//     faults for partial VMs (NewMemtap), and a model hypervisor with
//     descriptors, present bitmaps and 2 MiB chunk frame allocation
//     (NewVMDescriptor/NewPartialVM).
//
//   - A modelling layer: the calibrated migration latency/traffic models
//     of §4.4 and §5.1 (MicroBenchModel/ClusterModel), the Table 1 power
//     profiles (DefaultPowerProfile), and workload/trace generators
//     matching the paper's published aggregates.
//
//   - The cluster manager and trace-driven simulator of §3 and §5: build
//     a cluster configuration (DefaultClusterConfig), pick a consolidation
//     policy (OnlyPartial, Default, FulltoPartial, NewHome, or the
//     prior-work FullOnly baseline), and Simulate a day of VDI activity.
//
// Quick start:
//
//	cfg := oasis.DefaultSimConfig()
//	cfg.Cluster.Policy = oasis.FulltoPartial
//	res, err := oasis.Simulate(cfg)
//	if err != nil { ... }
//	fmt.Printf("energy savings: %.1f%%\n", res.SavingsPct)
//
// Every table and figure of the paper's evaluation can be regenerated
// with the benchmarks in bench_test.go or the oasis-bench command; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
package oasis
