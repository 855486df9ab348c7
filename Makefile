GO ?= go

.PHONY: all build test race stress vet lint check loc bench bench-check bench-fleet profile-fleet bench-codec profile-codec bench-fault clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run of the full suite; the resilience and fault-injection
# tests exercise real sockets and concurrent retry paths, so -race is the
# mode that matters for them. The cluster-day experiment tests exceed
# go test's default 10m package timeout under the race detector.
race:
	$(GO) test -race -timeout 30m ./...

# The chaos suite twenty times over, plain and under the race detector.
# Its accounting tests pin exact cross-layer counts (memtap faults ==
# hypervisor faults), so a duplicate fetch or a lost install that shows
# once in a hundred runs fails here instead of flaking tier-1. The shard
# fabric's own tests get the same treatment: its GetPages route race
# showed up there at 6 failures in 150 runs. So do the agent's: its
# hand-off tests hold migrations open across real sockets. And the client
# pool's breaker tests, under the race detector: a per-lane breaker cache
# once desynchronised in 3 runs of 8.
stress:
	$(GO) test -count=20 ./internal/stress
	$(GO) test -race -count=20 ./internal/stress
	$(GO) test -race -count=20 -run 'Pool|Breaker|Resilient|Parked' ./internal/memserver/
	$(GO) test -count=20 ./internal/memserver/shard/
	$(GO) test -race -count=20 ./internal/memserver/shard/
	$(GO) test -count=20 ./internal/agent/
	$(GO) test -race -count=20 ./internal/agent/

vet:
	$(GO) vet ./...

# lint fails if any file needs gofmt, then vets with test files
# included (the stress/fuzz suites are themselves deliverables here).
# gofmt -l prints the offending files, so the CI log names them.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet -tests=true ./...

# check is the CI gate: lint + race tests.
check: lint race

# loc prints the non-test line count ROADMAP tracks, per top-level package
# (internal/memserver includes its shard subpackage) and in total: tracked
# *.go outside bench/, minus _test.go files and testdata/.
loc:
	@git ls-files -- '*.go' ':!:bench/' ':!:*_test.go' ':!:*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); k = n == 1 ? "." : n == 2 ? p[1] : p[1] "/" p[2]; c[k] += $$1; t += $$1 } \
		END { for (k in c) printf "%7d  %s\n", c[k], k | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The benchmark of record is its own module (oasis/bench, compiled
# against the facade), so `go build ./... && go test ./...` at the root
# cannot see it: a facade change that breaks it would otherwise ship
# green.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The fleet-sim workload of the benchmark of record (bench/README.md):
# 9000 users, 2 workers, end-to-end metrics only; first, the user-day
# micro-benchmark behind its trace.user_day_ns layer metric.
bench-fleet:
	$(GO) test -run '^$$' -bench 'BenchmarkUserDayAt$$' -benchmem ./internal/trace
	bash bench/run.sh --workload fleet-sim --trace 0

# CPU profile of that same configuration (seed 42), written with the test
# binary it needs under .bench_build/; read it with
#   go tool pprof -top .bench_build/fleet.test .bench_build/fleet.cpu.prof
profile-fleet:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSim$$' -benchtime 20x -benchmem \
		-cpuprofile .bench_build/fleet.cpu.prof -o .bench_build/fleet.test ./internal/sim

# The codec micro-benchmarks: lzf on one page (caller-owned dst and nil),
# the in-place page encoder, and the snapshot encoder, whole image and a
# detach's diff (160 and 1600 dirty pages), on one core and on two (its
# shard count is GOMAXPROCS).
bench-codec:
	$(GO) test -run '^$$' -bench 'Page' -benchmem ./internal/lzf ./internal/pagestore
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeAll$$|BenchmarkEncodeDiff' -cpu 1,2 -benchmem ./internal/pagestore

# CPU profile of the snapshot encoder on one core (lzf + pagestore, what
# detach-upload has on the clock, without the shards' scheduling),
# written with its test binary under .bench_build/; read it with
#   go tool pprof -top .bench_build/codec.test .bench_build/codec.cpu.prof
profile-codec:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeAll$$' -cpu 1 -benchtime 200x -benchmem \
		-cpuprofile .bench_build/codec.cpu.prof -o .bench_build/codec.test ./internal/pagestore

# The demand fault against its floor: a bare loopback TCP ping-pong of a
# fault's sizes (16-byte request, 4 KiB reply) beside one GetPage round
# trip, lane to server; the gap between them is what the protocol, the
# client and the server add above the kernel. The second line does the
# same for the control path: a bare ping-pong of an agent ReadPage's frame
# sizes beside the real call, client to server.
bench-fault:
	$(GO) test -run '^$$' -bench 'BenchmarkLoopbackFloor$$|BenchmarkGetPageRoundTrip$$' -benchtime 3s -count 3 -benchmem ./internal/memserver
	$(GO) test -run '^$$' -bench 'BenchmarkRPCFloor$$|BenchmarkPageCall$$' -benchtime 3s -count 3 -benchmem ./internal/wire

clean:
	$(GO) clean ./...
