# Developer targets. `make check` is the full gate: build, vet, tests, and
# the race detector — the parallel experiment scheduler must stay race-clean.

GO ?= go

.PHONY: build fmt test vet race bench bench-engine bench-rack bench-datapath bench-fabric bench-realwire bench-mq bench-vol bench-ethernet bench-stream bench-blk race-rack race-fault race-shard race-trace race-mq race-vol doccheck loadgen-smoke fuzz-netwire examples benchjson memprofile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: every Go file in the tree must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# The experiment scheduler fans simulation cells across goroutines; any
# shared mutable state a future experiment sneaks in must fail here.
race:
	$(GO) test -race ./...

# Full evaluation benchmarks (quick mode), serial vs parallel.
bench:
	$(GO) test -run xxx -bench 'BenchmarkRunAll' -benchmem .

# Engine hot-path microbenchmarks (schedule/cancel/pending).
bench-engine:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/

# Rack control-plane macrobenchmark (imbalance healing end to end).
bench-rack:
	$(GO) test -run xxx -bench 'BenchmarkRackRebalance' -benchmem ./internal/rack/

# The control-plane tests alone under the race detector (subset of `race`).
race-rack:
	$(GO) test -race ./internal/rack/

# Fault-injection suite under the race detector: the fault package itself,
# the rig-based retransmission tests, and the faulttolerance experiment
# (whose cells run concurrently under -parallel).
race-fault:
	$(GO) test -race ./internal/fault/ ./internal/transport/ ./internal/experiments/

# Datapath microbenchmarks plus the zero-allocation guard (driver-to-endpoint
# over pooled NIC rings; net-tx must be 0 allocs/op).
bench-datapath:
	$(GO) test -run TestHotPathZeroAlloc -bench 'BenchmarkDatapath' -benchmem ./internal/transport/

# Sharded-fabric wall-clock benchmark: the 16-rack cross-rack workload at 1
# worker vs GOMAXPROCS workers (the shard_speedup of BENCH json).
bench-fabric:
	$(GO) test -run xxx -bench 'BenchmarkFabricSharded' -benchtime 2x .

# The sharded simulator under the race detector: shard coordinator, fabric
# switching, multi-rack cluster assembly, and the datacenter control plane.
# The coordinator hands whole engines to worker goroutines every sync window;
# any state shared across a shard boundary without a barrier must fail here.
race-shard:
	$(GO) test -race -run 'Shard|Fabric|Datacenter' ./internal/sim/ ./internal/link/ ./internal/cluster/ ./internal/rack/

# The observability plane under the race detector: per-shard tracers, the
# flight-recorder rings, the metrics rollup's per-shard tickers, and the
# fabrictrace worker-equivalence run. Spans, rollup rows, and flight dumps
# are recorded shard-locally and merged only between windows; a reader that
# crosses a shard boundary mid-window must fail here.
race-trace:
	$(GO) test -race -run 'Trace|Flight|Rollup|Merge' ./internal/trace/ ./internal/sim/ ./internal/rack/ ./internal/experiments/

# Real-wire microbenchmarks: frame seal+decode overhead and a 4 KiB block
# roundtrip over real loopback UDP sockets (both must stay 0 allocs/op).
bench-realwire:
	$(GO) test -run TestSealDecodeNoAlloc -bench . -benchmem ./internal/netwire/

# Fuzz the real-wire preamble unseal for 10 s: DecodeFrame never panics on
# arbitrary bytes, and a frame it accepts has a known kind, a payload that
# aliases the input, and re-seals to the same bytes.
fuzz-netwire:
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/netwire/

# Build and run every examples/* program; any non-zero exit fails.
examples:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null; done

# Two-process loopback smoke test for the real-wire carrier: vrio-loadgen
# server+driver over 127.0.0.1, once over UDP with injected loss (retransmit
# recovery) and once over TCP+TLS. Hash-verified, bounded wall time.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# Multi-queue block path: the QD=8 x NQ=4 datapath benchmark plus its
# zero-allocation guard (datapath_blk_mq_* in BENCH json must stay 0
# allocs/op).
bench-mq:
	$(GO) test -run TestHotPathZeroAllocMQ -bench 'BenchmarkDatapathBlkMQ' -benchmem ./internal/transport/

# The multi-queue submission path under the race detector: queue-tagged
# transport ids, per-queue in-flight tables and pinned workers in iohyp, the
# range-conflict scheduler, and the mqscaling cells (which run concurrently
# under -parallel).
race-mq:
	$(GO) test -race -run 'MQ|Queue|Scheduler' ./internal/transport/ ./internal/iohyp/ ./internal/blockdev/ ./internal/experiments/

# Distributed-volume write path: the R=1 quorum write benchmark plus its
# zero-allocation guard (vol_write_quorum_* in BENCH json must stay 0
# allocs/op on the fast path).
bench-vol:
	$(GO) test -run TestVolumeWriteQuorumZeroAlloc -bench 'BenchmarkVolumeWriteQuorum' -benchmem ./internal/core/

# §4.4 reassembly: the pooled 64 KiB reassembly zero-allocation guard and
# benchmark, then FuzzReassemble, which checks the coverage bitmap against
# the per-byte reference reassembler on shuffled, duplicated, overlapping
# and hostile fragment streams.
bench-ethernet:
	$(GO) test -run TestReassembleZeroAlloc -bench 'BenchmarkReassemble64K' -benchmem ./internal/ethernet/
	$(GO) test -run xxx -fuzz FuzzReassemble -fuzztime 10s ./internal/ethernet/

# Tenant stream path: one 64 000-byte netperf-stream chunk plus its ack
# through the vRIO datapath (allocs/op is per chunk), with the pool
# steady-state and double-ownership tests.
bench-stream:
	$(GO) test -run 'TenantStreamPoolSteadyState|PoolNeverHoldsASlabTwice' -bench 'BenchmarkStreamChunk' -benchmem ./internal/cluster/

# Block payload path: one 64 KiB vRIO write plus its read-back through the
# guest front-end, IOhost worker and ramdisk (allocs/op is per pair), the
# per-model pool steady-state and double-ownership tests, the IOhost's
# oversize-read refusal, the elvis/baseline corrupt-chain guards, and 10 s
# fuzz runs of the virtio block and volume header decoders.
bench-blk:
	$(GO) test -run 'BlockPoolSteadyState|PoolNeverHoldsASlabTwice' -bench 'BenchmarkBlkChunk' -benchmem ./internal/cluster/
	$(GO) test -run 'OversizeRead' ./internal/iohyp/
	$(GO) test -run 'CorruptReadChains' ./internal/core/
	$(GO) test -run xxx -fuzz FuzzBlkHdr -fuzztime 10s ./internal/virtio/
	$(GO) test -run xxx -fuzz FuzzVolHdr -fuzztime 10s ./internal/virtio/

# The distributed-volume layer under the race detector: extent maps and
# versioned replica state, the volume router's quorum/rebuild machinery, the
# cluster volume wiring, and the volrebuild cells (which run concurrently
# under -parallel).
race-vol:
	$(GO) test -race -run 'Vol|Quorum|Rebuild|Replica' ./internal/blockdev/ ./internal/core/ ./internal/cluster/ ./internal/experiments/

# Documentation gate: every exported symbol in blockdev/iohyp/cluster has a
# doc comment, and README's architecture map covers every internal/ package.
doccheck:
	./scripts/doccheck.sh

# Benchmark-trajectory record: writes BENCH_<date>.json with wall clock and
# events/sec for serial vs parallel RunAll.
benchjson:
	$(GO) run ./cmd/vrio-experiments -quick -benchjson

# Heap profile of a full quick evaluation run: mem.pprof records alloc_space,
# the before/after ledger of the buffer-pooling work (see EXPERIMENTS.md).
memprofile:
	$(GO) run ./cmd/vrio-experiments -run all -quick -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -sample_index=alloc_space -nodecount 15 mem.pprof

check: build fmt vet test race race-fault race-shard race-trace race-mq race-vol bench-mq bench-vol bench-ethernet bench-blk fuzz-netwire doccheck loadgen-smoke examples
