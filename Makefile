# CI entry points. `make ci` is the gate: formatting, vet, build (and a
# cross-build for arm64, where the kernels' Go twins are the only path),
# the vclint determinism/concurrency analyzers, the full test suite, a
# short smoke of the ten fuzz targets, a single-iteration benchmark pass
# (which includes the obs disabled-path overhead guard), a 1/50-scale
# pass of vcbench, the six end-to-end smokes, the check that the
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

.PHONY: ci fmt vet build cross lint one-table one-machine one-recorder one-kernel one-wait one-api loc test race golden results-check bench bench-short perf perf-short fuzz-smoke serve-smoke telemetry-smoke sched-smoke cluster-smoke live-smoke trace-smoke

ci: fmt vet build cross lint one-table one-machine one-recorder one-kernel one-wait one-api test fuzz-smoke bench-short perf-short serve-smoke telemetry-smoke sched-smoke cluster-smoke live-smoke trace-smoke results-check race

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
# purity, kernel-loop allocations, handler contexts). The analyzers'
# want-comment fixtures run in `make test`. The ./... pattern covers
# vclint's own source, so the linter self-checks. Findings are fix-by-hand; suppress a deliberate one with
# //lint:ignore <analyzer> <reason> (for chain findings, on the sink's
# enclosing function declaration).
lint:
	$(GO) run ./cmd/vclint ./...

# internal/memo is the only place bounded-table policy is written
# (DESIGN.md §4): no other non-test file may import container/list or
# declare an evict...Locked function.
one-table:
	@! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=memo \
		'"container/list"|^func .*evict[A-Za-z]*Locked' .

# The modeled machine is written down once, in internal/uarch/machine
# (DESIGN.md §4): outside it and bench/ no non-test file spells out a
# cache level's geometry or defaults to the machine's predictor by name
# (bpred's name table and the harness's ablation predictor list name
# predictors, not the machine), and none outside the cache package
# builds the paper machine's hierarchy per cell with NewXeonHierarchy
# instead of borrowing one from the free list.
one-machine:
	@! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=machine --exclude-dir=bench \
		'(cache\.Config|machine\.Cache)\{[^}]*SizeBytes:' .
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=machine --exclude-dir=bench \
		'"tage-8KB"' . | grep -vE '^\./internal/uarch/bpred/monitor\.go:|^\./internal/harness/exp_ablation\.go:.*\[\]string\{'
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=cache --exclude-dir=bench \
		'NewXeonHierarchy(' .

# A recording is a trace.Tape written as the encode runs, and a window
# is a view of it that every reader reads in place (DESIGN.md §4): no
# non-test file outside internal/trace and bench/ materialises a window
# (MicroOps is the per-op oracles' input) or holds micro-ops in a slice,
# but for the branch lists internal/cbp scores; internal/trace has
# exactly one Read, the only parser of trace bytes from outside; and
# perf/record.go holds exactly one Encode call — the recording one, run
# again only for a run that outgrew its tape — so neither a second copy
# of the window, a second file format nor a counting encode ahead of
# every recording can creep back.
one-recorder:
	@! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=trace --exclude-dir=bench \
		'MicroOps\(|Expand\(' .
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=trace --exclude-dir=bench --exclude-dir=cbp \
		'\[\]trace\.MicroOp' .
	@test "$$(ls internal/trace/*.go | grep -v _test.go | xargs cat | grep -c '^func Read')" = 1 || \
		{ echo "internal/trace must have exactly one func Read"; exit 1; }
	@test "$$(grep -c 'enc\.Encode(' internal/perf/record.go)" = 1 || \
		{ echo "internal/perf/record.go must call enc.Encode exactly once"; exit 1; }

# The host kernels are assembly twins of Go loops that produce the same
# bits (DESIGN.md §4): assembly lives only under internal/codec/, each
# .s file sits beside the _other.go that is its package on every other
# platform, and none holds a fused multiply-add, whose single rounding
# is exactly what the Go loops must not and cannot match.
one-kernel:
	@out="$$(find . -name '*.s' -not -path './internal/codec/*')"; \
	if [ -n "$$out" ]; then echo "assembly outside internal/codec/:"; echo "$$out"; exit 1; fi
	@for f in $$(find internal/codec -name '*.s'); do \
		ls "$$(dirname $$f)"/*_other.go >/dev/null 2>&1 || { echo "$$f has no _other.go beside it"; exit 1; }; \
	done
	@! grep -nE 'VF(N?M(ADD|SUB)|MADDSUB|MSUBADD)' $$(find internal/codec -name '*.s')

# A job's completion is pushed to whoever waits for it (DESIGN.md §8):
# Client.Drive is the submit helper plus one held request, so its body
# sleeps nowhere — the 429/reconnect pacing lives in submitAccepted, the
# guard against a server without ?wait= in awaitResult — and no non-test
# file outside bench/ brings back a client-side status read, a GET of the
# status endpoint, or a doubling poll delay to loop on.
one-wait:
	@! awk '/^func \(c Client\) Drive/,/^}/' internal/service/client.go | grep -n 'Sleep'
	@! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		'^func \(c Client\) Status|MethodGet, [^,]*"/v1/jobs/"|delay \*= 2' .

# One API, two backends (DESIGN.md §8): the job and session routes a
# daemon and a gate both serve are registered by service.(*API).Mount
# alone, so no non-test file outside internal/service mounts a
# /v1/jobs, /v1/results, /v1/sessions, /v1/trace, /v1/cluster/trace,
# /v1/slo, /metrics or /healthz pattern of its own.
one-api:
	@! grep -rnE --include='*.go' --exclude='*_test.go' \
		'Handle(Func)?\("([A-Z]+ )?/(v1/(jobs|results|sessions|trace|cluster/trace|slo)|metrics|healthz)' . | \
		grep -v '^\./internal/service/'

# The canonical size figure every simplicity PR quotes: non-test Go
# lines outside bench/. Assembly is counted on its own line.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1
	@find . -name '*.s' | xargs wc -l | tail -1 | sed 's/total/total assembly/'

build:
	$(GO) build ./...

# What an amd64-only runner cannot otherwise see: the tree builds and
# the codec vets where the _other.go files are the implementation, and
# the transform's Go loops compile there to separate multiplies and adds
# — a fused multiply-add rounds once where the tables' arithmetic
# rounds twice, so one in that listing means the tables depend on
# GOARCH.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/codec/...
	@if GOARCH=arm64 $(GO) build -gcflags=-S ./internal/codec/transform 2>&1 | grep -E 'FN?M(ADD|SUB)'; then \
		echo "internal/codec/transform compiles to fused multiply-adds on arm64"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/harness ./internal/encoders \
		./internal/service ./internal/sched ./internal/obs ./internal/telemetry \
		./internal/uarch/topdown ./internal/cluster/... ./internal/live ./internal/memo \
		./internal/uarch/cache ./internal/perf

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
# gates regressions is `make perf`, not this. The two codec packages
# carry the /kernel and /generic pairs (BenchmarkBlock2D,
# BenchmarkBlockSAD): the Go loops are unexported, so the ratio is
# measured where both sides can be called. bpred times one Step of each
# of the nine predictors on a recorded window (BenchmarkStep/<name>) and
# cbp the nine-name championship against its parts
# (BenchmarkChampionshipZoo: zoo < plain + hybrids is each TAGE geometry
# stepped once).
BENCH_PKGS = . ./internal/obs ./internal/codec/transform ./internal/codec/motion \
	./internal/uarch/bpred ./internal/cbp

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

# End-to-end smoke of the serving layer: boots vcprofd on a random
# port, drives it with vcload twice (200 jobs, c=16), and requires zero
# failures, identical digests across passes, a >=90% store hit rate on
# the warm pass, and a clean SIGTERM drain. See scripts/serve_smoke.sh.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# End-to-end smoke of the live telemetry pipeline: the same seeded
# vcload mix against a telemetry-off and a telemetry-on daemon must
# produce identical digests; `vcperf top -once -assert` must hold
# mid-load (top-down sums to 1 +/- 0.001, p99 >= p50); series and
# folded-stack surfaces must serve. See scripts/telemetry_smoke.sh.
telemetry-smoke:
	GO="$(GO)" sh scripts/telemetry_smoke.sh

# End-to-end smoke of the shard scheduler: the same seeded bimodal
# vcload mix against default daemons at -j 1 and -j 4 must produce
# identical digests, and on each the light-job p99 must sit >=5x below
# the heavy-job p99 (equal tails are what head-of-line blocking looks
# like). See scripts/sched_smoke.sh.
sched-smoke:
	GO="$(GO)" sh scripts/sched_smoke.sh

# End-to-end smoke of the shard router: a single-daemon baseline, a
# chaotic cold pass through a gate (vcprofd -shards) over 3 shards (one
# SIGKILLed mid-run, replication factor 2), and a warm pass through a
# fresh gate must all produce identical digests; the warm pass must
# route >=80% of jobs to a shard already holding the bytes. See
# scripts/cluster_smoke.sh.
cluster-smoke:
	GO="$(GO)" sh scripts/cluster_smoke.sh

# End-to-end smoke of the live-encode session engine: the same seeded
# session mix in-process, over a single vcprofd, and through a gate
# (vcprofd -shards) over 3 shards with one SIGKILLed mid-run must
# produce identical digests with zero deadline misses; ABR ladder
# sharing must save >=20% instructions with byte-identical output. See
# scripts/live_smoke.sh.
live-smoke:
	GO="$(GO)" sh scripts/live_smoke.sh

# End-to-end smoke of the tracing and federation surfaces: a gate
# (vcprofd -shards) over 3 shards (R=2) with a live session whose
# pinned shard is SIGKILLed mid-stream must serve a merged
# deterministic trace byte-identical to a bare daemon's, record the
# failover re-anchor in the full view, federate /v1/cluster/metrics
# byte-stably, and pass `vcperf slo -assert` with zero burn. See
# scripts/trace_smoke.sh.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh

# Ten-second smoke of each fuzz target over its committed seed corpus.
# Finding a crasher here fails CI; reproduce with the file Go writes
# under testdata/fuzz/<Target>/.
fuzz-smoke:
	$(GO) test ./internal/codec/entropy -run=^$$ -fuzz=FuzzBoolCoderRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/transform -run=^$$ -fuzz=FuzzDCTKernelVsGeneric -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/motion -run=^$$ -fuzz=FuzzSADKernelVsScalar -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/encoders -run=^$$ -fuzz=FuzzDecodeBitstream -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/uarch/bpred -run=^$$ -fuzz=FuzzTAGEFastVsRef -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/uarch/cache -run=^$$ -fuzz=FuzzHierarchyRunVsUnrolled -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzTapeVsRefRecorder -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzReadBranchTrace -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/uarch/pipeline -run=^$$ -fuzz=FuzzPipelineWindowVsOps -fuzztime=$(FUZZTIME)
