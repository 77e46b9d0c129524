#!/bin/sh
# trace_smoke.sh — end-to-end smoke of the distributed-tracing and
# telemetry-federation surfaces against their headline claim: placement
# is never content. The deterministic merged trace of one live session
# must be byte-identical whether the session ran on a bare vcprofd or
# through a gate (vcprofd -shards) over three shards with its pinned
# shard SIGKILLed mid-stream — and the kill itself must be visible in
# the full (volatile) view as a failover-re-anchor hop.
#
# Passes:
#   pass 0 (bare daemon): one session against a solo vcprofd; fetch
#     /v1/cluster/trace/<id>?volatile=0 as the reference bytes;
#   pass 1 (routed + chaos): the same session through the gate (3
#     shards, R=2); after the first feed the shard named in the create response
#     is SIGKILLed; the gate's deterministic merged trace must equal
#     pass 0 byte for byte, and the full view must record the
#     re-anchor;
#   then /v1/cluster/metrics?volatile=0 must be byte-stable across two
#   scrapes of the quiet cluster, and `vcperf slo -assert` must pass
#   with zero burn budgets.
set -eu

SMOKE=trace-smoke
. scripts/lib.sh

build vcprofd vcperf

spec='{"clip":"game1","frames":24,"div":8,"family":"svt-av1","crf":28,"preset":8,"gop":8,"fps":30,"deadline":16,"rungs":[36,44],"share":true}'

# drive_session <base-url> <outfile-prefix> [kill]
# Creates the session, feeds 8 frames, optionally SIGKILLs the pinned
# shard process, feeds to EOS, then fetches the deterministic merged
# trace into $workdir/<prefix>.det.json and the full view into
# $workdir/<prefix>.full.json.
drive_session() {
    base="$1"; prefix="$2"; do_kill="${3:-}"
    create="$(curl -fsS -H 'Content-Type: application/json' -X POST "$base/v1/sessions" -d "{\"spec\":$spec}")"
    sid="$(echo "$create" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    trace="$(echo "$create" | sed -n 's/.*"trace":"\([^"]*\)".*/\1/p')"
    [ -n "$sid" ] || fail "create returned no id: $create"
    curl -fsS -H 'Content-Type: application/json' -X POST "$base/v1/sessions/$sid/frames" -d '{"fed":8}' >/dev/null
    if [ -n "$do_kill" ]; then
        pinned="$(echo "$create" | sed -n 's/.*"shard":"\([^"]*\)".*/\1/p')"
        [ -n "$pinned" ] || fail "gate named no shard: $create"
        eval "victim=\$pid_$pinned"
        echo "trace-smoke: SIGKILL pinned shard $pinned (pid $victim)"
        kill -9 "$victim" 2>/dev/null || true
    fi
    curl -fsS -H 'Content-Type: application/json' -X POST "$base/v1/sessions/$sid/frames" -d '{"fed":16}' >/dev/null
    curl -fsS -H 'Content-Type: application/json' -X POST "$base/v1/sessions/$sid/frames" -d '{"fed":24,"eos":true}' >/dev/null
    [ -n "$trace" ] || trace="$(echo "$create" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p' | cut -c1-16 | sed 's/^/s-/')"
    echo "$trace" >"$workdir/$prefix.trace"
    curl -fsS "$base/v1/cluster/trace/$trace?volatile=0" >"$workdir/$prefix.det.json"
    curl -fsS "$base/v1/cluster/trace/$trace" >"$workdir/$prefix.full.json"
}

echo "trace-smoke: pass 0 — bare vcprofd reference"
boot solo vcprofd -store "$workdir/store-solo" -j 2
drive_session "http://$addr" solo
stop_pid "$pid" "daemon"

echo "trace-smoke: pass 1 — a gate over 3 shards (R=2), kill pinned shard mid-stream"
shard_spec=""
for i in 0 1 2; do
    boot "s$i" vcprofd -store "$workdir/store-s$i" -j 2 -name "s$i"
    eval "pid_s$i=$pid"
    shard_spec="$shard_spec${shard_spec:+,}s$i=http://$addr"
done
boot gate vcprofd -shards "$shard_spec" -replicas 2
gate_pid=$pid
gate_addr=$addr

drive_session "http://$gate_addr" gate kill

if ! cmp -s "$workdir/solo.det.json" "$workdir/gate.det.json"; then
    diff "$workdir/solo.det.json" "$workdir/gate.det.json" >&2 || true
    fail "deterministic merged trace differs between bare daemon and chaotic gate"
fi
if ! grep -q 'failover-re-anchor' "$workdir/gate.full.json"; then
    cat "$workdir/gate.full.json" >&2
    fail "full trace view records no failover-re-anchor after the kill"
fi
if grep -q 'failover-re-anchor' "$workdir/gate.det.json"; then
    fail "volatile re-anchor leaked into the deterministic view"
fi

echo "trace-smoke: federated metrics byte-stability"
curl -fsS "http://$gate_addr/v1/cluster/metrics?volatile=0" >"$workdir/fed1.prom"
curl -fsS "http://$gate_addr/v1/cluster/metrics?volatile=0" >"$workdir/fed2.prom"
if ! cmp -s "$workdir/fed1.prom" "$workdir/fed2.prom"; then
    diff "$workdir/fed1.prom" "$workdir/fed2.prom" >&2 || true
    fail "deterministic federated exposition not byte-stable"
fi
grep -q 'shard="cluster"' "$workdir/fed1.prom" || fail "federation has no cluster roll-up rows"

echo "trace-smoke: SLO gate (vcperf slo -assert, zero budgets)"
if ! "$workdir/vcperf" slo -addr "$gate_addr" -assert >"$workdir/slo.log" 2>&1; then
    cat "$workdir/slo.log" >&2
    fail "SLO assert tripped on a clean run"
fi
cat "$workdir/slo.log"
grep -q '^slo ok$' "$workdir/slo.log" || fail "vcperf slo -assert did not report 'slo ok'"

"$workdir/vcperf" trace -addr "$gate_addr" -det -o "$workdir/vcperf.trace.json" \
    "$(cat "$workdir/gate.trace")"
cmp -s "$workdir/vcperf.trace.json" "$workdir/gate.det.json" || fail "vcperf trace bytes differ from the raw endpoint"

stop_pid "$gate_pid" "gate"

echo "trace-smoke: OK — identical deterministic trace across topologies, re-anchor traced, federation stable, slo ok"
