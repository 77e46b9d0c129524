#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the consistent-hash shard
# router against the claim it exists for: routing is a performance
# lever, never a results lever.
#
# Boots one vcprofd as the single-daemon baseline and runs a seeded
# bimodal vcload mix against it, then boots three fresh-store shards
# plus a gate — vcprofd -shards, replication factor 2 — and drives the
# same mix through the gate twice:
#   pass A (cold + chaos): while the load runs, shard s2 is SIGKILLed
#     mid-run — the router must fail the orphaned jobs over and finish
#     with zero failures and the baseline's exact digest;
#   pass B (warm): a second, cold-memory gate over the surviving
#     shards re-serves the same mix — routes must land on the shards
#     whose stores already hold each id (ring ownership + replication),
#     so the warm-route rate must clear SMOKE_WARM_MIN (default 80%),
#     and the digest must again equal the baseline.
# Each gate and, finally, the surviving shards must drain cleanly on
# SIGTERM in under 2 s: a hedge loser's shard abandons the loser's job
# when the winner lands, so no daemon is still computing for nobody when
# the signal arrives (one used to, through its whole 10 s drain budget).
#
# Tunables (env): SMOKE_JOBS (default 90), SMOKE_CONC (default 12),
# SMOKE_HEAVY_EVERY (default 15), SMOKE_KILL_AFTER seconds (default 2),
# SMOKE_WARM_MIN percent (default 80).
set -eu

JOBS="${SMOKE_JOBS:-90}"
CONC="${SMOKE_CONC:-12}"
HEAVY="${SMOKE_HEAVY_EVERY:-15}"
KILL_AFTER="${SMOKE_KILL_AFTER:-2}"
WARM_MIN="${SMOKE_WARM_MIN:-80}"
SMOKE=cluster-smoke
. scripts/lib.sh

build vcprofd vcload

run_load() { # run_load <logname> <addr> [extra vcload flags...]
    log="$workdir/$1.log"
    target="$2"
    shift 2
    "$workdir/vcload" -addr "$target" -n "$JOBS" -c "$CONC" -seed 7 \
        -heavy-every "$HEAVY" -flat-prio "$@" | tee "$log"
    grep -q "^vcload: $JOBS jobs ok" "$log" || fail "pass '$log' did not report all jobs ok"
}

# stop_fast <pid> <what> <log>: stop_pid, inside the 2 s drain bound.
stop_fast() {
    t0="$(date +%s%N)"
    stop_pid "$@"
    ms=$(( ($(date +%s%N) - t0) / 1000000 ))
    [ "$ms" -lt 2000 ] || fail "$2 took $ms ms from SIGTERM to exit, want < 2000"
}

echo "cluster-smoke: pass 0 — single-daemon baseline ($JOBS jobs, c=$CONC, heavy every $HEAVY)"
boot base vcprofd -store "$workdir/store-base" -j 1
run_load baseline "$addr"
stop_pid "$pid" "baseline daemon"

echo "cluster-smoke: booting 3 shards + a gate (vcprofd -shards, R=2)"
shard_spec=""
shard_pids=""
for i in 0 1 2; do
    boot "s$i" vcprofd -store "$workdir/store-s$i" -j 1 -name "s$i"
    shard_pids="$shard_pids $pid"
    shard_spec="$shard_spec${shard_spec:+,}s$i=http://$addr"
done
s2_pid="${shard_pids##* }"

boot gate1 vcprofd -shards "$shard_spec" -replicas 2
gate1_pid=$pid

echo "cluster-smoke: pass A — cold routed run, SIGKILL shard s2 after ${KILL_AFTER}s"
run_load cold "$addr" -gate &
load_pid=$!
sleep "$KILL_AFTER"
kill -9 "$s2_pid" 2>/dev/null || true
wait "$load_pid" || fail "cold routed pass failed"
# Drain gate 1 so every pending replica push lands before pass B reads
# the shard stores.
stop_fast "$gate1_pid" "gate (pass A)" "$workdir/gate1.log"

echo "cluster-smoke: pass B — warm routed run through a fresh gate (s2 still dead)"
boot gate2 vcprofd -shards "$shard_spec" -replicas 2
gate2_pid=$pid
run_load warm "$addr" -gate

# Determinism across the routing boundary: identical digests for the
# single daemon, the chaotic cold cluster run, and the warm run.
d_base="$(digest_of baseline)"
for p in cold warm; do
    d="$(digest_of $p)"
    if [ -z "$d_base" ] || [ "$d" != "$d_base" ]; then
        fail "'$p' digest $d != baseline $d_base"
    fi
done

# The warm-routing claim: a cold-memory gate over warm shard stores
# must route >= WARM_MIN% of jobs to a shard already holding the bytes.
warm_rate="$(sed -n 's/^gate warm-rate \([0-9.]*\)%.*/\1/p' "$workdir/warm.log")"
[ -n "$warm_rate" ] || fail "no 'gate warm-rate' line in warm pass output"
if ! awk -v w="$warm_rate" -v m="$WARM_MIN" 'BEGIN { exit !(w >= m) }'; then
    fail "warm-route rate ${warm_rate}% below ${WARM_MIN}%"
fi

stop_fast "$gate2_pid" "gate (pass B)" "$workdir/gate2.log"
i=0
for pid in $shard_pids; do
    # s2 was SIGKILLed mid-run by design.
    [ "$pid" = "$s2_pid" ] || stop_fast "$pid" "shard s$i" "$workdir/s$i.log"
    i=$((i + 1))
done

echo "cluster-smoke: OK — $JOBS jobs x3, identical digest $d_base, warm-route rate ${warm_rate}%, shard kill survived"
