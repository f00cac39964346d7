GO ?= go

.PHONY: check fmt vet build test test-race reach bench bench-compare bench-live profile

check: fmt vet build test-race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# reach fails when a function declared in non-test code is linked by no
# command, workload or figure test and is not in scripts/reach.allow
# with its reason; `bash scripts/reach.sh -list` prints every unlinked one.
reach:
	bash scripts/reach.sh

# bench runs the repository benchmark (all six workloads, untraced, seed 1)
# the way the driver does and writes one stamped result file per workload to
# $(OUT). benchmark/README.md names the metrics, BENCHMARK.json the bounds.
OUT ?= benchmark/out

bench:
	bash benchmark/run.sh -out $(OUT)

# bench-compare reads two such directories and prints medians, quartiles and a
# same/worse/unresolved/gain verdict per workload and metric: run `make bench
# OUT=<dir>` several times on each commit, then `make bench-compare A=… B=…`.
bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# bench-live runs the repository benchmark's two live workloads (recovery and
# fail-back time on the monitor/medic/sdnsim stack, with and without wire
# delay); see benchmark/README.md for the metrics and BENCHMARK.json for the
# bounds.
bench-live:
	bash benchmark/run.sh --workload live-att-wan
	bash benchmark/run.sh --workload live-att-react

# profile captures CPU and heap profiles of a pmsim evaluation run into
# ./profiles; inspect with `go tool pprof profiles/pmsim.cpu.pb.gz`.
profile:
	@mkdir -p profiles
	$(GO) run ./cmd/pmsim -scenario 2 -skip-optimal -cpuprofile profiles/pmsim.cpu.pb.gz -memprofile profiles/pmsim.mem.pb.gz > /dev/null
	@echo "wrote profiles/pmsim.cpu.pb.gz profiles/pmsim.mem.pb.gz"
