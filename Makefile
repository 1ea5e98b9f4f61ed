# Build/test entry points. `make tier1` is the acceptance gate every PR
# must keep green; `make race` exercises the concurrent paths (transport
# pool, CFP fan-out, live servers, telemetry scrapes, pooled data-plane
# buffers) under the race
# detector; `make cover` enforces the per-package coverage floor on the
# observability packages; `make chaos` replays the deterministic
# fault-injection drills (scripted kill/error/torn-frame incidents over
# real TCP) plus the crash/liveness suites they build on; `make docs`
# keeps docs/OPERATIONS.md and the godoc surface in lock-step with the
# code.

GO ?= go

.PHONY: tier1 build test vet race cover chaos chaos-mm bench scenarios scenarios-tenant fuzz-smoke codec-skew fmt-check docs all

all: tier1 vet

tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -count=1 ./internal/wire/... ./internal/transport/... ./internal/live/... ./internal/dfsc/... ./internal/telemetry/... ./internal/monitor/... ./internal/mm/... ./internal/rm/... ./internal/faults/... ./internal/blkio/... ./internal/tenant/... ./internal/vdisk/...

# chaos replays the self-healing drills: deterministic fault scripts
# (internal/faults) against live TCP deployments — mid-stream kill with
# offset-resumed failover, crash-restart liveness epochs, scripted Open
# errors, lease-sweeper keepalives — plus the older crash/redial suites.
chaos:
	$(GO) test -race -count=1 ./internal/faults/...
	$(GO) test -race -count=1 -run 'Chaos|Crash|Failover|Lease|Liveness|Heartbeat|Torn' ./internal/live/... ./internal/mm/... ./internal/rm/... ./internal/dfsc/... ./internal/wire/...

# chaos-mm drills the replicated metadata plane on its own: kill 1 of N
# live MM shards mid-workload (lease cache + successor failover keep
# opens green), stale-lease expiry racing the takeover handoff, a heal
# from a takeover copy after a whole owner set died, the in-process
# replicated-shard kill/takeover/heal suite, and the differential run of
# one op script through the in-process and TCP transports — race-enabled.
chaos-mm:
	$(GO) test -race -count=1 -run 'ShardChaos|Replicated|ShardHealth|Unreplicated|ShardDifferential' ./internal/live/ ./internal/mm/

# cover writes one profile per gated package plus a merged coverage.out
# for the CI artifact, then enforces the floors via the gate script:
# 60% on the observability packages, 80% on the replicated metadata
# core (internal/mm carries the shard ring, health and handoff logic),
# on the QoS enforcement core (internal/blkio carries the
# work-conserving token tree every data stream throttles through), and
# on the tenant quota ledger (internal/tenant is the multi-tenant
# admission arithmetic every RM trusts).
cover:
	mkdir -p coverage
	$(GO) test -coverprofile=coverage/telemetry.out ./internal/telemetry/
	$(GO) test -coverprofile=coverage/monitor.out ./internal/monitor/
	$(GO) test -coverprofile=coverage/faults.out ./internal/faults/
	$(GO) test -coverprofile=coverage/scenario.out ./internal/scenario/
	$(GO) test -coverprofile=coverage/mm.out ./internal/mm/
	$(GO) test -coverprofile=coverage/blkio.out ./internal/blkio/
	$(GO) test -coverprofile=coverage/tenant.out ./internal/tenant/
	$(GO) test -coverprofile=coverage/all.out -coverpkg=./... ./...
	./scripts/cover_gate.sh 60 coverage/telemetry.out coverage/monitor.out coverage/faults.out coverage/scenario.out
	./scripts/cover_gate.sh 80 coverage/mm.out coverage/blkio.out coverage/tenant.out

# bench runs the data-plane benchmark harness: wire codec and checksum
# benchmarks, the virtual disk's synthetic fill, and the live-TCP
# streaming and striped-read benchmarks, parsed into BENCH_6.json, with
# the 0-allocs/op gate on the fast-path codecs, the checksum and fill
# speed-up floors and the K4-vs-K1 stripe-scaling floor. The work-conserving QoS benchmark
# (borrowing tree vs flat baseline) lands in BENCH_9.json, gated on
# strictly-above-flat utilization with zero assured-floor violations.
# BENCH_TIME tunes the per-benchmark budget (CI uses a shorter one).
bench:
	./scripts/bench.sh BENCH_6.json BENCH_9.json

# scenarios runs the million-client scenario engine with its SLO gates:
# every builtin scenario through the DES (10⁵–10⁶ simulated clients in
# full mode) plus a live-TCP slice each, reported into BENCH_7.json. Any
# SLO violation fails the target. SCEN_MODE=short runs the reduced CI
# shape; SCEN_SEED pins the master seed.
scenarios:
	./scripts/scenarios.sh BENCH_7.json

# scenarios-tenant runs the multi-tenant noisy-neighbor scenario alone:
# an abusive tenant storming past its per-RM bandwidth quota while the
# victim tenant's SLO gates — fail-rate ceiling, p99 ceiling, and the
# no-abuser-baseline fail-rate delta — prove quota isolation held. The
# abuser's own gate is a refusal floor: if the quota never bit, the run
# fails too. Reported into BENCH_10.json.
scenarios-tenant:
	SCEN_FLAGS="-scenario noisy-neighbor $(SCEN_FLAGS)" ./scripts/scenarios.sh BENCH_10.json

# fuzz-smoke gives each wire codec and checksum fuzz target, and each
# operator-facing spec parser (-faults, -tenant-quotas, selection
# policies), a short randomized run on top of its seeded corpus — enough
# to catch decoder and parser panics and checksum divergence without
# CI-hostile runtimes. Targets must run one at a time (go test allows a
# single -fuzz pattern per invocation).
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzBinaryChunkRoundTrip$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzChecksumEquivalence$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzControlRoundTrip$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzChecksumCombine$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/faults/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/tenant/ -run '^$$' -fuzz '^FuzzParseQuotas$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/selection/ -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZ_TIME)

# codec-skew replays version skew over real TCP: a frame under the
# legacy gob tag 0, one under an unassigned tag, and an unknown kind must
# each fail promptly with a typed *wire.CodecError against a real RM
# server and a real RM client, and a peer that predates the CRC checksum
# must fail on the checksum, on reads and uploads alike.
codec-skew:
	$(GO) test -count=1 -run '^(TestLiveCodecSkewFailsLoudly|TestLegacyChecksumPeerFailsLoudly|TestLegacyChecksumUploadRefused)$$' ./internal/live/

# docs runs the documentation-consistency suite (internal/docscheck):
# every flag the daemons register and every dfsqos_* telemetry series
# the tree can construct must appear in docs/OPERATIONS.md, and the
# godoc-surface packages must document every exported symbol (the
# revive-style comment-presence check, implemented on go/ast).
docs:
	$(GO) test -count=1 ./internal/docscheck/

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
