GO ?= go

.PHONY: all build test race stress vet lint check loc bench bench-check bench-fleet profile-fleet bench-codec profile-codec clean

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
# once in a hundred runs fails here instead of flaking tier-1.
stress:
	$(GO) test -count=20 ./internal/stress
	$(GO) test -race -count=20 ./internal/stress

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
# 9000 users, 2 workers, end-to-end metrics only.
bench-fleet:
	bash bench/run.sh --workload fleet-sim --trace 0

# CPU profile of that same configuration (seed 42), written with the test
# binary it needs under .bench_build/; read it with
#   go tool pprof -top .bench_build/fleet.test .bench_build/fleet.cpu.prof
profile-fleet:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSim$$' -benchtime 20x -benchmem \
		-cpuprofile .bench_build/fleet.cpu.prof -o .bench_build/fleet.test ./internal/sim

# The codec micro-benchmarks: lzf on one page (caller-owned dst and nil),
# the in-place page encoder, and the whole-snapshot encoders.
bench-codec:
	$(GO) test -run '^$$' -bench 'Page|EncodePages' -benchmem ./internal/lzf ./internal/pagestore

# CPU profile of the serial snapshot encoder (lzf + pagestore, what
# detach-upload has on the clock), written with its test binary under
# .bench_build/; read it with
#   go tool pprof -top .bench_build/codec.test .bench_build/codec.cpu.prof
profile-codec:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkEncodePagesSerial$$' -benchtime 200x -benchmem \
		-cpuprofile .bench_build/codec.cpu.prof -o .bench_build/codec.test ./internal/pagestore

clean:
	$(GO) clean ./...
