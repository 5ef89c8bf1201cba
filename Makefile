GO ?= go

.PHONY: all build test vet race bench benchsmoke loadsmoke membersmoke tracesmoke chaossmoke scalesmoke fuzzsmoke execsmoke scalersmoke perfbenchsmoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The resilience/chaos tests are written to be race-clean; CI runs the
# whole tree under the detector.
race:
	$(GO) test -race ./...

# bench regenerates BENCH_qamarket.json — the committed benchmark
# trajectory (figure wall-clocks, hot-path ns/op + allocs/op, the
# sequential-vs-parallel qabench timing, and the 100-node federation
# row: negotiate RPCs per completed query, full fan-out vs amortized).
bench:
	$(GO) run ./cmd/benchjson

# benchsmoke just proves every benchmark still compiles and runs.
benchsmoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# loadsmoke drives a tiny qaload run against a self-hosted in-process
# federation: the load generator, pooled transport, and latency
# histograms all exercised end to end in a couple of seconds.
loadsmoke:
	$(GO) run ./cmd/qaload -selfnodes 2 -clients 4 -queries 24 -mix 3 -mspercost 0.005 -period 25

# membersmoke exercises dynamic membership end to end: a 3-node
# federation converges from one seed, a 4th node joins the live market
# (and receives allocations), one founder is crashed, and gossip must
# evict it from every surviving table and the client view.
membersmoke:
	$(GO) run ./cmd/membersmoke

# tracesmoke runs one traced query through a 2-node federation and
# asserts the assembled cross-process span tree (client run/negotiate/
# execute over server solve/queue/exec) plus the winner's Prometheus
# exposition.
tracesmoke:
	$(GO) run ./cmd/tracesmoke

# chaossmoke soaks the query-protection layer under deterministic
# faults: overload sheds with typed refusals, severed replies are
# answered from the dedup window, partitions and a node crash fail
# over — and no query may execute twice or vanish untyped. Run under
# the race detector: the protection paths are all concurrency.
chaossmoke:
	$(GO) run -race ./cmd/chaossmoke

# fuzzsmoke runs the two binary decoders' fuzzers briefly on every CI
# run: the frame lane's and the gossip member-row codec's
# malformed-input promise ("typed error, never panic, never unbounded
# allocation") plus the committed crasher corpus as regression seeds.
# Five seconds each finds shallow decoder regressions; run
# `go test -fuzz FuzzFrameDecode ./internal/cluster` (or FuzzDecodeRows)
# unbounded when touching frame.go or the row codec in protocol.go.
fuzzsmoke:
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 5s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzDecodeRows$$' -fuzztime 5s

# execsmoke soaks the storage-driver seam: a federation whose nodes
# front different executors (row, vector, mock) is checked for
# cell-level parity against a local oracle, multi-frame streaming,
# gossip-advertised executor names, and at-most-once execution under
# injected engine faults.
execsmoke:
	$(GO) run ./cmd/execsmoke

# scalesmoke stands up the full 100-node gossip-joined federation with
# every amortization layer on (batched CFPs, epoch-stamped bid cache,
# per-class shard probing), churns two members mid-run, and asserts
# cached admission happened and no query executed twice or was lost.
scalesmoke:
	$(GO) run ./cmd/scalesmoke

# scalersmoke closes the telemetry loop end to end: rejection pressure
# against a single founder must make the autoscaler recruit replicas —
# every decision bounded by max-step and spaced by the cooldown — then
# a quiet glut must drain them gracefully, with executed-once preserved
# across the launched and drained recruits.
scalersmoke:
	$(GO) run ./cmd/scalersmoke

# perfbenchsmoke vets and tests the benchmark under perfbench/. It is
# its own Go module, so the ./... targets above never compile it and a
# cluster API change could break the benchmark unnoticed. The env is
# perfbench/run.sh's offline build env.
PERFBENCH_ENV = GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
perfbenchsmoke:
	cd perfbench && env $(PERFBENCH_ENV) $(GO) vet ./... && env $(PERFBENCH_ENV) $(GO) test ./...

ci: build vet test race benchsmoke loadsmoke membersmoke tracesmoke chaossmoke scalesmoke execsmoke fuzzsmoke scalersmoke perfbenchsmoke
