#!/bin/sh
# telemetry_smoke.sh — end-to-end smoke of the live telemetry pipeline.
#
# Boots vcprofd twice on a random port with a fresh store each time:
# once with time-series sampling disabled (-sample 0) and once with
# sampling, tracing and a hot ticker enabled. Both daemons serve the
# same seeded vcload mix (every 4th job a quick topdown-producing
# experiment), and the smoke checks the contract the telemetry layer
# makes:
#   1. zero failed jobs on either daemon;
#   2. the result digests are identical with telemetry off and on —
#      observation never perturbs results;
#   3. `vcperf top -once -assert` succeeds against the live daemon
#      while load is in flight: top-down fractions are non-zero and
#      sum to 1 +/- 0.001, and the latency histogram has p99 >= p50;
#   4. `vcperf series` returns sampled rows and `vcperf flame`
#      returns well-formed folded stacks.
# Finally it SIGTERMs the daemons and requires a clean drain.
#
# Tunables (env): SMOKE_JOBS (default 100), SMOKE_CONC (default 8).
set -eu

JOBS="${SMOKE_JOBS:-100}"
CONC="${SMOKE_CONC:-8}"
SMOKE=telemetry-smoke
. scripts/lib.sh

build vcprofd vcload vcperf

run_load() {
    "$workdir/vcload" -addr "$addr" -n "$JOBS" -c "$CONC" -seed 7 -exp-every 4 \
        | tee "$workdir/$1.log"
}

# Pass 1: telemetry fully off — no sampler, no tracer. This digest is
# the ground truth the observed daemon must reproduce.
echo "telemetry-smoke: pass 1 — sampling off ($JOBS jobs, c=$CONC)"
boot daemon-off vcprofd -store "$workdir/store-off" -j 4 -sample 0
run_load off
stop_pid "$pid" daemon

# Pass 2: everything on — hot sampler, span tracing. vcperf top runs
# mid-load with -assert; it may race the first experiment commit, so a
# short retry loop tolerates "no top-down slots yet" (exit 1) but any
# transport error (exit 3) is fatal immediately.
echo "telemetry-smoke: pass 2 — sampling+tracing on"
boot daemon-on vcprofd -store "$workdir/store-on" -j 4 -sample 25ms -trace
run_load on &
load_pid=$!
asserted=1
for _ in $(seq 1 120); do
    rc=0
    "$workdir/vcperf" top -addr "$addr" -once -assert >"$workdir/top.log" 2>"$workdir/top.err" || rc=$?
    case "$rc" in
    0) asserted=0; break ;;
    1) sleep 0.25 ;;
    *) cat "$workdir/top.err" >&2
       fail "vcperf top exit $rc" ;;
    esac
done
if [ "$asserted" -ne 0 ]; then
    cat "$workdir/top.err" >&2
    fail "vcperf top -assert never passed"
fi
echo "telemetry-smoke: vcperf top asserts hold (top-down sums to 1, p99 >= p50)"
wait "$load_pid" || fail "load against observed daemon failed"

for p in off on; do
    grep -q "^vcload: $JOBS jobs ok" "$workdir/$p.log" || fail "pass '$p' did not report all jobs ok"
done

# Observation transparency: identical result digests with telemetry
# off and on.
d_off="$(digest_of off)"
d_on="$(digest_of on)"
if [ -z "$d_off" ] || [ "$d_off" != "$d_on" ]; then
    fail "telemetry changed results ($d_off vs $d_on)"
fi

# Ring-buffer store: the sampler must have retained rows.
"$workdir/vcperf" series -addr "$addr" -window 8 >"$workdir/series.log" || fail "vcperf series"
if ! grep -q "svc.queue.depth" "$workdir/series.log"; then
    cat "$workdir/series.log" >&2
    fail "series output missing svc.queue.depth"
fi

# Continuous profiler: folded stacks are `stack count` lines with
# encode-stage frames in them.
"$workdir/vcperf" flame -addr "$addr" -o "$workdir/folded.txt" || fail "vcperf flame"
if ! awk 'NF != 2 { exit 1 }' "$workdir/folded.txt" || ! grep -q "stage/" "$workdir/folded.txt"; then
    head "$workdir/folded.txt" >&2
    fail "folded stacks malformed"
fi

stop_pid "$pid" daemon

echo "telemetry-smoke: OK — $JOBS jobs x2, identical digest $d_off with telemetry off/on, live asserts held"
