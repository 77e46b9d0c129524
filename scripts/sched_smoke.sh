#!/bin/sh
# sched_smoke.sh — end-to-end smoke of the shard scheduler and
# cost-aware admission against the head-of-line contract they exist
# for.
#
# Boots a default vcprofd twice on a random port with a fresh store
# each time, once at -j 1 and once at -j 4 (the shard pool is as wide
# as -j). Both daemons serve the same seeded bimodal vcload mix (every
# 15th encode heavy: 4× frames, 4× resolution, slowest preset; one flat
# priority class so only cost-aware ordering separates the two
# populations), and the smoke checks the contract the scheduler makes:
#   1. zero failed jobs on either daemon, and a clean drain;
#   2. the result digests are identical at both pool widths — the
#      scheduler decides only when and where work runs, never what it
#      computes;
#   3. per pass, light p99 × SMOKE_P99X (default 5) <= heavy p99. The
#      bound calibrates itself to the host: if light jobs queued behind
#      in-flight heavy encodes (whole-job arrival-order service) the
#      two tails would be equal; with shortest-job-first admission and
#      shard-level interleaving the light tail sits one to two orders
#      below the heavy one (EXPERIMENTS.md records the last A/B against
#      the arrival-order daemon before it was deleted).
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

# p99_of <pass> <Light|Heavy>: the population's p99 in ns, read straight
# off vcload's -bench lines.
p99_of() {
    awk -v name="BenchmarkServeLatency${2}P99" '$1 == name { print $3 }' "$workdir/$1.log"
}

summary=""
for j in 1 4; do
    pass="j$j"
    echo "sched-smoke: pass -j $j ($JOBS jobs, c=$CONC, heavy every $HEAVY)"
    boot "daemon-$pass" vcprofd -store "$workdir/store-$pass" -j "$j"
    "$workdir/vcload" -addr "$addr" -n "$JOBS" -c "$CONC" -seed 7 \
        -heavy-every "$HEAVY" -flat-prio -bench \
        | tee "$workdir/$pass.log"
    stop_pid "$pid" "daemon (-j $j)" "$workdir/daemon-$pass.log"

    grep -q "^vcload: $JOBS jobs ok" "$workdir/$pass.log" || fail "pass -j $j did not report all jobs ok"

    light="$(p99_of "$pass" Light)"
    heavy="$(p99_of "$pass" Heavy)"
    if [ -z "$light" ] || [ -z "$heavy" ]; then
        fail "light/heavy p99 lines missing from vcload output (-j $j)"
    fi
    if ! awk -v l="$light" -v h="$heavy" -v x="$P99X" 'BEGIN { exit !(l > 0 && l * x <= h) }'; then
        fail "-j $j: light p99 ${light}ns x $P99X exceeds heavy p99 ${heavy}ns — light jobs are stuck behind heavy ones"
    fi
    summary="$summary, -j $j light p99 $(awk -v l="$light" -v h="$heavy" 'BEGIN { printf "%.0fx", h / l }') below heavy"
done

# Determinism across pool widths: identical result digests.
d1="$(digest_of j1)"
d4="$(digest_of j4)"
if [ -z "$d1" ] || [ "$d1" != "$d4" ]; then
    fail "pool width changed results ($d1 at -j 1 vs $d4 at -j 4)"
fi

echo "sched-smoke: OK — $JOBS jobs x2, identical digest $d1$summary"
