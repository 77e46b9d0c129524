#!/bin/sh
# sched_smoke.sh — end-to-end smoke of the shard scheduler and
# cost-aware admission against the tail-latency claim they exist for.
#
# Boots vcprofd twice on a random port with a fresh store each time:
# once as the legacy baseline (sharding off, fifo admission) and once
# with the work-stealing shard pool and SJF admission on. Both daemons
# serve the same seeded bimodal vcload mix (every 15th encode heavy:
# 4× frames, 4× resolution, slowest preset; one flat priority class so
# the comparison isolates cost-aware ordering), and the smoke checks
# the contract the scheduler makes:
#   1. zero failed jobs on either daemon;
#   2. the result digests are identical baseline vs sharded — the
#      scheduler decides only when and where work runs, never what it
#      computes;
#   3. the light-job p99 improves by at least SMOKE_P99X (default 5×):
#      under fifo, light jobs queue behind in-flight heavy encodes and
#      the tail is tens of seconds; under SJF + sharding it collapses
#      to ordinary queue wait. (The combined p99 is not used — in a
#      bimodal mix it lands on the heavy population by construction.)
# Finally it SIGTERMs the daemons and requires a clean drain.
#
# Tunables (env): SMOKE_JOBS (default 120), SMOKE_CONC (default 16),
# SMOKE_HEAVY_EVERY (default 15), SMOKE_P99X (default 5).
set -eu

JOBS="${SMOKE_JOBS:-120}"
CONC="${SMOKE_CONC:-16}"
HEAVY="${SMOKE_HEAVY_EVERY:-15}"
P99X="${SMOKE_P99X:-5}"
SMOKE=sched-smoke
. scripts/lib.sh

build vcprofd vcload

run_load() {
    "$workdir/vcload" -addr "$addr" -n "$JOBS" -c "$CONC" -seed 7 \
        -heavy-every "$HEAVY" -flat-prio -bench \
        | tee "$workdir/$1.log"
}

# One service worker (-j 1) per daemon on purpose: the tail under study
# is head-of-line blocking, and extra workers hide it.
echo "sched-smoke: pass 1 — baseline: sharding off, fifo admission ($JOBS jobs, c=$CONC, heavy every $HEAVY)"
boot daemon-baseline vcprofd -store "$workdir/store-baseline" -j 1 -shard=false -admission fifo
run_load baseline
stop_pid "$pid" daemon

echo "sched-smoke: pass 2 — shard pool + SJF admission"
boot daemon-sharded vcprofd -store "$workdir/store-sharded" -j 1 -shard-workers 4 -steal-seed 1
run_load sharded
stop_pid "$pid" daemon

for p in baseline sharded; do
    grep -q "^vcload: $JOBS jobs ok" "$workdir/$p.log" || fail "pass '$p' did not report all jobs ok"
done

# Determinism across the scheduler boundary: identical result digests
# with sharding off and on.
d_base="$(digest_of baseline)"
d_shard="$(digest_of sharded)"
if [ -z "$d_base" ] || [ "$d_base" != "$d_shard" ]; then
    fail "shard scheduling changed results ($d_base vs $d_shard)"
fi

# The tail-latency claim: light-job p99 must improve by >= P99X (read
# straight off vcload's -bench lines).
p99_base="$(awk '$1 == "BenchmarkServeLatencyLightP99" { print $3 }' "$workdir/baseline.log")"
p99_shard="$(awk '$1 == "BenchmarkServeLatencyLightP99" { print $3 }' "$workdir/sharded.log")"
if [ -z "$p99_base" ] || [ -z "$p99_shard" ]; then
    fail "light-job p99 lines missing from vcload output"
fi
if ! awk -v b="$p99_base" -v s="$p99_shard" -v x="$P99X" \
    'BEGIN { exit !(s > 0 && b / s >= x) }'; then
    fail "light p99 ${p99_base}ns -> ${p99_shard}ns, improvement below ${P99X}x"
fi
ratio="$(awk -v b="$p99_base" -v s="$p99_shard" 'BEGIN { printf "%.1f", b / s }')"

echo "sched-smoke: OK — $JOBS jobs x2, identical digest $d_base, light p99 ${ratio}x better sharded"
