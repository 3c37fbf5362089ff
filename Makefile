# The same commands CI runs (.github/workflows/ci.yml), for humans.
# `make ci` is the single source of truth: every gate the workflow
# enforces is a target here, and the workflow only calls make.

GO ?= go

.PHONY: all build test race bench bench-smoke cross-checks fuzz-smoke \
	recovery-smoke obs-smoke benchmark-check benchmark-pair govulncheck \
	staticcheck fmt fmt-check vet ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark pass (real measurements).
bench:
	$(GO) test -bench . -benchmem ./...

# One-iteration smoke run: proves every benchmark still compiles and runs,
# then one benchmark workload as the load smoke — queries of all three
# classes beside live writes on an indexed deployment, every answer checked
# against the LSN-replay oracle (exit status 0 only with none wrong and
# none failed).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	bash benchmark/run.sh -workload mixed_churn -trace 0
	$(MAKE) obs-smoke

# Observability smoke: boot the built binaries (self-contained gateway,
# then k real cmd/site processes with -metrics), drive query and update
# load over HTTP, and fail on malformed Prometheus exposition, a missing
# trace tree, or any guarantee-auditor violation. See cmd/obscheck.
obs-smoke:
	$(GO) build -o /tmp/distreach-smoke-serve ./cmd/serve
	$(GO) build -o /tmp/distreach-smoke-site ./cmd/site
	$(GO) run ./cmd/obscheck -serve /tmp/distreach-smoke-serve -site /tmp/distreach-smoke-site

# Short fuzzing pass over the wire, durability and dataset codecs (one
# target per invocation: the Go fuzzer requires exactly one -fuzz match).
fuzz-smoke:
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzBatchPayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzUpdatePayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzRebalancePayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzSyncPayload$$' -fuzztime 20s
	$(GO) test ./internal/oplog -run '^$$' -fuzz '^FuzzOpsCodec$$' -fuzztime 20s
	$(GO) test ./internal/oplog -run '^$$' -fuzz '^FuzzSegmentScan$$' -fuzztime 20s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzSNAPLoader$$' -fuzztime 20s

# Crash-recovery acceptance pass (race-enabled): kill-and-restart catch-up
# over 50 randomized graphs, two concurrent gateways under one sequencer,
# snapshot-fallback catch-up, durable-sequencer restart resumption, and the
# gateway's WAL boot recovery.
recovery-smoke:
	$(GO) test -race -count 1 \
		-run 'TestSiteCatchUpAfterRestart|TestTwoGatewaysConverge|TestSyncSnapshotFallback' ./internal/netsite
	$(GO) test -race -count 1 \
		-run 'TestSequencerResumesAfterRestart|TestStoreRecover|TestLogTornTailTruncated' ./internal/oplog
	$(GO) test -race -count 1 \
		-run 'TestGatewayDurabilityStats|TestGatewayRecoversDeploymentFromWAL' ./cmd/serve

# The wire/simulation cross-checks CI pins with -count 1 (they are part of
# `make race` too; the explicit run guards against cached passes).
cross-checks:
	$(GO) test -race -run 'TestBatchWireCrossCheck|TestBatchLifecycleNoLeak' -count 1 ./internal/netsite
	$(GO) test -race -run 'TestAnytimeCrossCheck|TestAnytimePendingNoLeak|TestPartialFrameFailsRound' -count 1 ./internal/netsite
	$(GO) test -race -run 'TestUpdateWireCrossCheck|TestUpdateConcurrentWithQueries' -count 1 ./internal/netsite
	$(GO) test -race -run 'TestIndexChurnCrossCheck|TestFragmentIndexMatchesDirect' -count 1 ./internal/netsite ./internal/core
	$(GO) test -race -run 'TestIndexAnswersUnderChurnAndRebalance|TestIndexProbeCountsAcrossSwap|TestLSNStampedUnderReadLock' -count 1 ./internal/fragment
	$(GO) test -race -run 'TestReachIndexLifecycle$$' -count 300 -cpu 1,2,4 ./internal/fragment
	$(GO) test -race -run 'TestGroupCommitCoalesces' -count 1 ./internal/oplog
	$(GO) test -race -run 'TestNodeOpsWireCrossCheck|TestNodeMutationCrossCheck|TestRebalanceEpochRace|TestRebalanceRestoresBalance' -count 1 ./internal/netsite ./internal/fragment
	$(GO) test -race -run 'TestTraceCrossCheck|TestWireAccounting|TestWireStatsMatchSocketBytes' -count 1 ./internal/netsite
	$(GO) test -race -run 'TestTouchedMatchesOracle|TestTouchedSound|TestDriverReportsUnchanged|TestSourceEqMatchesLocalEval|TestSourcesFollowTheClosure' -count 1 ./internal/core ./internal/bes
	$(GO) test -race -run 'TestBoundaryCacheCrossCheck|TestBoundaryCacheCrossCheckShared|TestBoundaryCacheBytes|TestRowsPlusQueryPartMatchesLocalEval|TestProbeMatchesEquationSystem|TestRowsCacheKeepsNewerGeneration|TestRowsMemoOncePerGeneration|TestRowsDeltaPatch|TestPatchRefusesForeignDeltas' -count 1 ./internal/netsite ./internal/core
	$(GO) test -race -run 'FuzzBatchPayload|TestRetiredFramesRejected|TestDistanceHugeWeights|TestLocalRowsMatchCutDist|TestRowsRoundTrip|TestRPQPartialRoundTrip|TestLocalEvalRPQMatchesOracle|TestLocalEvalRPQConcurrent|TestRegexWireCrossCheck|TestRegexTouchedSound|TestRPQKeyBound|TestUnmarshalRejectsGarbage' -count 1 ./internal/netsite ./internal/core
	$(GO) test -race -run 'TestGatewayConcurrentMisses' -count 1 ./cmd/serve
	$(GO) test -race -run 'TestBatchFramesPerExpectedSite|TestBoundaryCacheCrossCheck$$|TestBoundaryCacheCrossCheckShared|TestNonOwnerQueryPartsEmpty' -count 1 ./internal/netsite ./internal/core

# The nested benchmark module (benchmark/go.mod, `replace distreach => ../`)
# is out of reach of the root `./...`: vet and test it here so a netsite
# API slip fails CI, not the benchmark pipeline. Under 5 s.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# The perf gate: benchmark/run.sh on BENCH_BASE (checked out into a git
# worktree under .bench_build/) and then on this checkout, minutes apart on
# the same machine — the only comparison the measured run-to-run spread
# supports — and -check of the pair against BENCHMARK.json's bounds. Both
# results files stay in .bench_build/pair/ whether or not the check passes.
benchmark-pair:
	@test -n "$(BENCH_BASE)" || { echo "usage: make benchmark-pair BENCH_BASE=<ref>"; exit 2; }
	mkdir -p .bench_build/pair
	git worktree remove --force .bench_build/base 2>/dev/null || true
	git worktree add --detach .bench_build/base $(BENCH_BASE)
	bash .bench_build/base/benchmark/run.sh -trace 0 -out $(CURDIR)/.bench_build/pair/base.json
	git worktree remove --force .bench_build/base
	bash benchmark/run.sh -trace 0 -out .bench_build/pair/head.json
	bash benchmark/run.sh -check .bench_build/pair/base.json .bench_build/pair/head.json

# Static analysis beyond go vet. Downloads the tool on first run.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

# Known-vulnerability scan against the Go vuln DB. Downloads the scanner
# on first run and needs network for the DB, so it is its own target (and
# CI job) rather than part of the offline-friendly gates.
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: build vet fmt-check benchmark-check race cross-checks recovery-smoke bench-smoke staticcheck fuzz-smoke
