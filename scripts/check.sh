#!/bin/sh
# CI gate: build everything, vet everything, then run the full test suite
# under the race detector. The simulator runs real goroutines for workers,
# appliers and the coordinator, so -race gives the HTM/NIC/oplog paths a
# genuine concurrency workout rather than a formality.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# The benchmark driver is a nested module, so the build above never compiles
# it: build, vet and test it here, so a harness or workload API change
# cannot silently break the benchmark.
go -C perfbench vet ./...
go -C perfbench test ./...

# Static protocol invariants: the drtmr-vet analyzer suite (internal/lint)
# enforces the runtime invariants at compile time — no blocking/yield inside
# HTM regions, no wall clock or global rand in protocol packages, fully
# attributed txn.Error literals, complete lock-CAS back-out scans, no
# single-verb RDMA where a doorbell batch is in scope, lock-order/hold-
# across-yield discipline, allocation-free //drtmr:hotpath functions, and
# exhaustive protocol-enum switches. It runs as a plain go vet tool, once
# per race/!race build-tag half, and the gate fails on any finding. A
# finding is suppressed only in place, with a reasoned
# //drtmr:allow <analyzer> <reason> on the offending line or the line above.
go build -o bin/drtmr-vet ./cmd/drtmr-vet
go vet -vettool=bin/drtmr-vet ./...
go vet -vettool=bin/drtmr-vet -tags race ./...

# Both halves of the //go:build race / !race pair must keep compiling: the
# !race half is covered by the plain build+vet above; this compiles (and
# standard-vets) the race-tagged configuration, so a tag typo can't silently
# drop a file from either half.
go vet -race ./...

go test -race ./...

# Strict-serializability gate: a short torture sweep under -race (the full
# suite above already ran the full sweep; -short keeps this pass <30s), the
# mutation self-test (every deliberately broken protocol step must be
# caught), and a fuzz smoke of the redo-record codec.
go test -race -short -run 'TestTortureSweep|TestMutationSelfTest|TestStaleIncarnationScenario' -count=1 ./internal/check/
go test -run '^$' -fuzz FuzzRedoRoundtrip -fuzztime 5s ./internal/cluster/

# Serve gate: the network front door end to end under -race — >=10k stored
# procedures over real TCP through admission control, then the sampled
# history must pass the strict-serializability checker, the bank must
# conserve money exactly, and the fleet accounting must close (every offered
# call lands in exactly one outcome bucket; Dropped == 0). Plus a fuzz smoke
# of the wire frame codec (length-prefix framing + Call/Result roundtrip).
go test -race -run 'TestServeGateEndToEnd|TestAdmissionShedsAtOverload|TestAdmissionDisabledQueuesEverything' -count=1 ./internal/serve/
go test -run '^$' -fuzz FuzzFrameRoundtrip -fuzztime 5s ./internal/serve/wire/

# Trace-overhead gate: the observability layer must not move virtual time.
# TestTraceOverheadBudget (in the race run above) asserts enabled==disabled
# and <3% drift vs BENCH_coroutine_overlap.json; this prints the numbers at
# the baseline's iteration count for the log.
go test ./internal/txn/ -run '^$' -bench BenchmarkTraceOverhead -benchtime 200x

# Contention-manager gate: the tail sweep runs both ContentionMode settings
# through the hot-key queue and commutative-delta commit paths (named
# explicitly so a benchmark-filter change can't silently drop it; the
# catch-all pass below also includes it).
go test -run '^$' -bench BenchmarkFigContentionTail -benchtime 1x .

# Commit-protocol gate: the conformance suite runs the shared correctness
# battery (bank invariant, uncommittable-read block, dangling-lock release,
# coroutine atomicity, lock back-out) over EVERY registered CommitProtocol,
# and the protocol-matrix figure drives both pipelines head-to-head — it
# fails on any nonzero read-only-participant wakeup count.
go test -race -run 'TestProtocolConformance|TestProtocolLockBackoutReleasesAll|TestProtocolROVerbAccounting|TestProtocolRegistry' -count=1 ./internal/txn/
go test -run '^$' -bench BenchmarkFigProtocolMatrix -benchtime 1x .

# Smoke-run every benchmark once: the figure benchmarks drive the full
# harness (including the coroutine-overlap sweep), so this catches
# experiment-path regressions that unit tests miss.
go test -run '^$' -bench . -benchtime 1x ./...
