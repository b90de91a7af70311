GO ?= go

.PHONY: all help build test vet lint race check bench bench-smoke trace torture serve

all: check

help:
	@echo "Targets:"
	@echo "  build        go build ./..."
	@echo "  vet          go vet ./... (after build)"
	@echo "  lint         drtmr-vet analyzer suite (internal/lint) as a go vet"
	@echo "               tool over both build-tag halves: htmregion, virtualtime,"
	@echo "               abortattr, lockpair, doorbell, lockorder, hotalloc,"
	@echo "               enumswitch; any finding fails; suppress with"
	@echo "               '//drtmr:allow <analyzer> <reason>'"
	@echo "  test         full test suite"
	@echo "  race         full test suite under -race"
	@echo "  check        CI gate: build + vet + lint + race + smoke benchmarks"
	@echo "  bench        all benchmarks (smoke scale)"
	@echo "  bench-smoke  every benchmark once + emit/validate a trace JSON"
	@echo "  trace        traced SmallBank run -> trace.json (Perfetto/Chrome)"
	@echo "  torture      strict-serializability torture sweep + mutation"
	@echo "               self-test (internal/check; SEED=n to vary, a"
	@echo "               violating cell prints its deterministic replay seed)"
	@echo "  serve        run the drtmr-serve network front door on :7707"
	@echo "               (/statusz on :7708; ADDR=/HTTP= to override)"
	@echo ""
	@echo "Knobs:"
	@echo "  Engine.Protocol / harness Options.Protocol / drtmr-bench -protocol:"
	@echo "    commit protocol by registry name (default drtmr = the paper's"
	@echo "    HTM pipeline; farm = FaRM-style one-sided log-append: write-set"
	@echo "    locks only, lock-checking validation, replicate-before-install,"
	@echo "    no HTM commit region). Head-to-head sweep: 'go run"
	@echo "    ./cmd/drtmr-bench -fig proto' or BenchmarkFigProtocolMatrix;"
	@echo "    conformance battery: TestProtocolConformance* (internal/txn)."
	@echo "  Engine.CoroutinesPerWorker / harness Options.CoroutinesPerWorker:"
	@echo "    in-flight transaction contexts per worker (default 4)."
	@echo "    1 = classic one-transaction-per-thread ablation; sweep with"
	@echo "    'go run ./cmd/drtmr-bench -fig coro' or BenchmarkCoroutineOverlap."
	@echo "  Engine.DisableVerbBatching: per-verb latency accounting ablation."
	@echo "  Engine.ContentionMode / harness Options.ContentionMode:"
	@echo "    hot-record contention manager (default on). off = pure OCC"
	@echo "    retry ablation; sweep with 'go run ./cmd/drtmr-bench -fig tail'"
	@echo "    or BenchmarkFigContentionTail. Tuning: Engine.ContentionHotThreshold"
	@echo "    (aborts before a key is queued), Engine.BackoffMaxExp (retry"
	@echo "    backoff exponent cap)."
	@echo "  Observability (internal/obs, see DESIGN.md):"
	@echo "    drtmr-bench -trace out.json       per-worker event trace (open at"
	@echo "                                      https://ui.perfetto.dev)"
	@echo "    drtmr-bench -fig lat              latency-percentile CDF table"
	@echo "    drtmr-bench -fig 20 -trace r.json recovery milestones as a trace"
	@echo "    Worker.EnableTrace / Options.Trace enable recording in code."
	@echo "  Serve mode (internal/serve, cmd/drtmr-serve, see DESIGN.md):"
	@echo "    drtmr-serve -addr :7707 -http :7708   TCP front door + /statusz"
	@echo "    drtmr-serve -fleet N -rate R -skew z  open-loop load fleet"
	@echo "    -admission off                        unbounded-queue ablation"
	@echo "    -watermark N                          queue-depth shed point"
	@echo "    -payment-protocol farm                per-procedure commit protocol"
	@echo "    drtmr-bench -fig serve                overload sweep, on vs off"

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

# lint runs the protocol-invariant analyzer suite through the real go vet
# -vettool driver (cmd/drtmr-vet speaks the unitchecker protocol), once per
# race/!race build-tag half. Any finding fails.
lint: build
	$(GO) build -o bin/drtmr-vet ./cmd/drtmr-vet
	$(GO) vet -vettool=bin/drtmr-vet ./...
	$(GO) vet -vettool=bin/drtmr-vet -tags race ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: build, vet, the full suite under the race detector
# (the simulator runs real goroutines per worker/applier, so -race exercises
# the HTM engine and NIC paths hard), then a 1x pass over every benchmark.
check:
	./scripts/check.sh

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke additionally emits a smoke-scale trace and validates it (the
# -trace path re-reads the written file and checks well-formed JSON, known
# event phases and per-track monotone timestamps before reporting success).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run 'TestProtocolConformance' -count=1 ./internal/txn/
	$(GO) run ./cmd/drtmr-bench -smoke -fig proto
	$(GO) run ./cmd/drtmr-bench -smoke -trace smoke-trace.json
	@rm -f smoke-trace.json

trace:
	$(GO) run ./cmd/drtmr-bench -trace trace.json

# torture: full knob-matrix strict-serializability sweep (with kill cells)
# plus the checker self-test against deliberately broken protocol steps.
SEED ?= 3
torture:
	$(GO) run ./cmd/drtmr-bench -torture -seed $(SEED)
	$(GO) run ./cmd/drtmr-bench -torture -mutate -seed $(SEED)

# serve runs the network front door until interrupted: stored procedures
# over the wire protocol on ADDR, live status JSON at http://HTTP/statusz.
ADDR ?= 127.0.0.1:7707
HTTP ?= 127.0.0.1:7708
serve:
	$(GO) run ./cmd/drtmr-serve -addr $(ADDR) -http $(HTTP)
