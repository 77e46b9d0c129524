# CI entry points. `make ci` is the gate: formatting, vet, build (and a
# cross-build for arm64, where the kernels' Go twins are the only path),
# the vclint determinism/concurrency analyzers, the full test suite
# (which checks the architecture contracts, TestArchitectureContracts,
# and the kernels' layout, kernel.TestKernelLayout), a short smoke of
# all 21 of the tree's fuzz targets, a single-iteration benchmark pass
# (which includes the obs disabled-path overhead guard), a 1/50-scale
# pass of vcbench, the end-to-end smoke, the check that the
# committed results/ CSVs are what the tree prints, and the race pass
# over the concurrent packages (harness engine + encoders). The race pass
# re-runs the golden and equivalence suites under the detector, so it
# gets a long timeout.

GO ?= go
RACE_TIMEOUT ?= 60m
FUZZTIME ?= 10s

# Every stdlib vet pass, spelled out (from `go tool vet help`) so a
# toolchain that grows a new pass fails loudly here instead of silently
# running without it. Update the list when bumping the Go version.
VET_PASSES = -appends -asmdecl -assign -atomic -bools -buildtag \
	-cgocall -composites -copylocks -defers -directive -errorsas \
	-framepointer -httpresponse -ifaceassert -loopclosure -lostcancel \
	-nilfunc -printf -shift -sigchanyzer -slog -stdmethods -stdversion \
	-stringintconv -structtag -testinggoroutine -tests -timeformat \
	-unmarshal -unreachable -unsafeptr -unusedresult

.PHONY: ci fmt vet build cross lint loc test race golden results-check bench bench-short perf perf-short fuzz-smoke smoke

ci: fmt vet build cross lint test fuzz-smoke bench-short perf-short smoke results-check race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet $(VET_PASSES) ./...

# vclint enforces the determinism and concurrency invariants documented
# in DESIGN.md §6 (detflow: wall-clock, randomness, host-environment and
# map-order sources in deterministic code and reachable from its roots;
# mutex discipline, lockorder deadlock cycles, shardpure task-body
# purity). The analyzers'
# want-comment fixtures run in `make test`. The ./... pattern covers
# vclint's own source, so the linter self-checks. Findings are fix-by-hand; suppress a deliberate one with
# //lint:ignore <analyzer> <reason> (for chain findings, on the sink's
# enclosing function declaration).
lint:
	$(GO) run ./cmd/vclint ./...

# The canonical size figure every simplicity PR quotes: non-test Go
# lines outside bench/. Assembly is counted on its own line.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1
	@find . -name '*.s' | xargs wc -l | tail -1 | sed 's/total/total assembly/'

build:
	$(GO) build ./...

# What an amd64-only runner cannot otherwise see: the tree builds and
# the codec vets where kernel_other.go is the implementation, and the
# kernel package's Go loops (the transform's rowsTimes among them)
# compile there to separate multiplies and adds — a fused multiply-add
# rounds once where the tables' arithmetic rounds twice, so one in that
# listing means the tables depend on GOARCH.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/codec/...
	@if GOARCH=arm64 $(GO) build -gcflags=-S ./internal/codec/kernel 2>&1 | grep -E 'FN?M(ADD|SUB)'; then \
		echo "internal/codec/kernel compiles to fused multiply-adds on arm64"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/harness ./internal/encoders \
		./internal/service ./internal/sched ./internal/obs ./internal/telemetry \
		./internal/uarch/topdown ./internal/cluster/... ./internal/live ./internal/memo \
		./internal/uarch/cache ./internal/uarch/pipeline ./internal/perf

# Regenerate the golden regression tables after an intentional change,
# then review the diff under internal/harness/testdata/golden/.
golden:
	$(GO) test ./internal/harness -run TestGoldenTables -update

# The committed default-scale CSVs under results/ must be exactly what
# the tree prints: regenerate all of them into a temp dir and diff. A
# change that moves a table on purpose reruns
# `go run ./cmd/repro -csv results all` and commits the diff.
results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/repro -csv "$$tmp" all && \
	diff -r -x README.md "$$tmp" results

# Full pass of the Go micro-benchmarks, kept as benchstat-compatible
# text (compare runs with `benchstat old.txt new.txt`). The ledger that
# gates regressions is `make perf`, not this. The codec packages that
# call the host kernels carry the /kernel and /generic pairs of every
# AVX2 kernel (BenchmarkBlock2D, BenchmarkSATD, BenchmarkBlockSAD,
# BenchmarkInterpHalfPel, BenchmarkResidual, BenchmarkTileSSE,
# BenchmarkQuantizeKernel, BenchmarkDequantizeKernel and rdo's
# BenchmarkBitsEstimate), timing kernel.…Kernel against
# kernel.…Generic; BenchmarkSADx4 times the four-position SAD against
# four SADKernel calls. motion times one search per algorithm with no,
# a count-only and a recording context (BenchmarkSearch/<alg>/{nil,
# count,record}). bpred times one Step of each of the nine predictors
# on a recorded window (BenchmarkStep/<name>) and cbp the nine-name
# championship against its parts
# (BenchmarkChampionshipZoo: zoo < plain + hybrids is each TAGE geometry
# stepped once). trace times a round of every reporting call with
# nothing attached and with two no-op sinks (BenchmarkCtx/{count,hooked})
# and entropy one coded bit with no, a count-only and a recording
# context (BenchmarkEncoderBit/{nil,count,record}); trace's
# TestCountOnlyDoesNotAllocate (in `make test`) holds the count-only
# path at 0 allocs. quant times the quantizer pair against its
# pre-rewrite oracle (BenchmarkQuantize, BenchmarkDequantize: /N against
# /N/ref). encoders times the encode a served job runs, SVT-AV1 preset 4
# on a small clip, on a count-only context and on one with two no-op
# sinks (BenchmarkEncodeServed/{count,hooked}): the count-only search
# decides each shared sub-block once, the hooked one every time; and
# the B/op and allocs/op of a count-only encode on a warm working set
# (BenchmarkEncodeWarm/<family>), which allocates its outputs and
# little else. sched runs a 16- and a 512-task graph of no-op tasks on
# a 2-worker pool (BenchmarkRunGraph/tasks=<n>): the scheduler's own
# cost per run, whose allocs/op do not grow with the task count.
# service times one 4 KiB result appended to and read back from the
# segment store, checksum included (BenchmarkStorePut, BenchmarkStoreGet).
# perf times one window recording per family at vcbench replay_grid's
# shape, in ms/op (BenchmarkRecordWindow/<family>), and the branch list
# of that whole-run window, in µs/op (BenchmarkWindowBranches/<family>).
BENCH_PKGS = . ./internal/obs ./internal/codec ./internal/codec/quant \
	./internal/codec/rdo ./internal/codec/transform ./internal/codec/motion \
	./internal/uarch/bpred ./internal/cbp ./internal/trace ./internal/codec/entropy \
	./internal/encoders ./internal/uarch/pipeline ./internal/service ./internal/perf \
	./internal/sched

bench:
	mkdir -p bench/out
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCH_PKGS) | tee bench/out/gobench.txt

# One iteration of every benchmark: proves they still run (and trips
# the obs allocation guard) without paying full measurement time.
bench-short:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ $(BENCH_PKGS)

# vcbench, the repository's one benchmark (bench/README.md): five runs
# of every workload into bench/out/current.json, then the verdict table
# against the committed baseline; exit 1 on any regression.
perf:
	$(GO) run ./bench -runs 5 -out bench/out/current.json
	$(GO) run ./bench -compare bench/results/baseline.json bench/out/current.json

# ~1/50-scale pass of the same code paths: proves every workload still
# runs and checks its results, without measuring anything.
perf-short:
	$(GO) run ./bench -short

# The end-to-end smoke of the serving stack (scripts/smoke.sh): one
# build of vcprofd, vcload, vclive and vcperf; two daemons (-j 1 with no
# sampler, -j 4 with sampling and tracing) and one cluster (3 shards, a
# gate with R=2, a fresh second gate). One seeded job mix, one session
# mix and one traced session must each give one digest (one trace) on
# every topology, through a SIGKILL of a shard while the gate has all
# three in flight. Also: light p99 >=5x below heavy p99, >=90% warm store
# hits, >=80% warm routes, ladder sharing >=20%, zero deadline misses,
# live top-down/series/flame/federation/SLO surfaces, and every daemon
# stopped says bye within 2 s of SIGTERM.
smoke:
	GO="$(GO)" sh scripts/smoke.sh

# Ten-second smoke of each fuzz target over its committed seed corpus.
# Finding a crasher here fails CI; reproduce with the file Go writes
# under testdata/fuzz/<Target>/. TestFuzzSmokeListsEveryTarget (in
# `make test`) keeps this list equal to the tree's Fuzz functions.
fuzz-smoke:
	$(GO) test ./internal/codec/entropy -run=^$$ -fuzz=FuzzBoolCoderRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/transform -run=^$$ -fuzz=FuzzDCTKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/transform -run=^$$ -fuzz=FuzzSATDVsRef -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/quant -run=^$$ -fuzz=FuzzQuantVsRef -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/quant -run=^$$ -fuzz=FuzzQuantKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/rdo -run=^$$ -fuzz=FuzzBitsEstimateKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/motion -run=^$$ -fuzz=FuzzSADKernelVsScalar -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/motion -run=^$$ -fuzz=FuzzInterpKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/motion -run=^$$ -fuzz=FuzzSADx4KernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/motion -run=^$$ -fuzz=FuzzSearchVsRef -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/transform -run=^$$ -fuzz=FuzzSATDKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec -run=^$$ -fuzz=FuzzResidualKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec -run=^$$ -fuzz=FuzzTileSSEKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/encoders -run=^$$ -fuzz=FuzzDecodeBitstream -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/uarch/bpred -run=^$$ -fuzz=FuzzTAGEFastVsRef -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/uarch/cache -run=^$$ -fuzz=FuzzHierarchyRunVsUnrolled -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzTapeVsRefRecorder -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzReadBranchTrace -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/uarch/pipeline -run=^$$ -fuzz=FuzzPipelineWindowVsOps -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run=^$$ -fuzz=FuzzStoreOpen -fuzztime=$(FUZZTIME)
