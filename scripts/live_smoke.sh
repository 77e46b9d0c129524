#!/bin/sh
# live_smoke.sh — end-to-end smoke of the live-encode session engine
# against its headline claims: streaming is a latency mode, never a
# results mode, and ABR ladder sharing is a cost lever, never a
# content lever.
#
# Runs the same seeded session mix three ways and requires one digest:
#   pass 0 (baseline): vclive drives the engine in-process — the
#     reference digest, with zero deadline misses at the calibrated
#     feed rate;
#   pass 1 (daemon): the mix over a single vcprofd's session endpoints
#     — transport must not touch a byte;
#   pass 2 (routed + chaos): the mix through a gate (vcprofd -shards,
#     R=2) over three shards, with one shard SIGKILLed mid-run — sticky
#     sessions must fail over from their GOP-boundary resume tokens
#     with no client-visible divergence.
# Then the ABR ladder comparison must report >= LADDER_MIN% instruction
# saving with byte-identical output, and the daemon and gate must drain
# cleanly on SIGTERM.
#
# Tunables (env): SMOKE_SESSIONS (default 6), SMOKE_CONC (default 3),
# SMOKE_KILL_AFTER seconds (default 3), LADDER_MIN percent (default 20).
set -eu

SESSIONS="${SMOKE_SESSIONS:-6}"
CONC="${SMOKE_CONC:-3}"
KILL_AFTER="${SMOKE_KILL_AFTER:-3}"
LADDER_MIN="${LADDER_MIN:-20}"
SMOKE=live-smoke
. scripts/lib.sh

build vcprofd vclive

run_live() { # run_live <logname> [vclive flags...]
    log="$workdir/$1.log"
    shift
    "$workdir/vclive" -n "$SESSIONS" -c "$CONC" -seed 11 "$@" | tee "$log"
    grep -q "^vclive: $SESSIONS sessions ok" "$log" || fail "pass did not report all sessions ok"
}

echo "live-smoke: pass 0 — in-process baseline ($SESSIONS sessions, c=$CONC)"
run_live baseline
d_base="$(digest_of baseline)"
misses="$(sed -n 's/.*deadline-misses \([0-9]*\).*/\1/p' "$workdir/baseline.log")"
[ -n "$d_base" ] || fail "baseline printed no digest"
[ "$misses" = "0" ] || fail "$misses deadline misses at the calibrated feed rate, want 0"

echo "live-smoke: pass 1 — same mix over a single vcprofd"
boot solo vcprofd -store "$workdir/store-solo" -j 2
run_live daemon -addr "$addr"
stop_pid "$pid" "daemon"

echo "live-smoke: pass 2 — 3 shards + a gate, SIGKILL one shard after ${KILL_AFTER}s"
shard_spec=""
shard_pids=""
for i in 0 1 2; do
    boot "s$i" vcprofd -store "$workdir/store-s$i" -j 2 -name "s$i"
    shard_pids="$shard_pids $pid"
    shard_spec="$shard_spec${shard_spec:+,}s$i=http://$addr"
done
s1_pid="$(echo $shard_pids | cut -d' ' -f2)"

boot gate vcprofd -shards "$shard_spec" -replicas 2
gate_pid=$pid

run_live routed -addr "$addr" &
load_pid=$!
sleep "$KILL_AFTER"
kill -9 "$s1_pid" 2>/dev/null || true
wait "$load_pid" || fail "routed pass failed"
stop_pid "$gate_pid" "gate"
for pid in $shard_pids; do
    [ "$pid" = "$s1_pid" ] && continue # SIGKILLed mid-run by design
    stop_pid "$pid" "shard"
done

# Determinism across the serving boundary: identical digests for the
# in-process engine, the daemon, and the chaotic routed run.
for p in daemon routed; do
    d="$(digest_of $p)"
    [ "$d" = "$d_base" ] || fail "'$p' digest $d != baseline $d_base"
done

echo "live-smoke: ABR ladder comparison (share on vs off)"
"$workdir/vclive" -ladder-compare | tee "$workdir/ladder.log"
saving="$(sed -n 's/.*saving=\([0-9.]*\)%.*/\1/p' "$workdir/ladder.log")"
[ -n "$saving" ] || fail "no saving line in ladder-compare output"
if ! awk -v s="$saving" -v m="$LADDER_MIN" 'BEGIN { exit !(s >= m) }'; then
    fail "ladder-share saving ${saving}% below ${LADDER_MIN}%"
fi
grep -q 'bytes-equal=true digest-equal=true' "$workdir/ladder.log" || fail "ladder sharing changed output bytes"

echo "live-smoke: OK — $SESSIONS sessions x3, identical digest $d_base, 0 deadline misses, ladder saving ${saving}%, shard kill survived"
