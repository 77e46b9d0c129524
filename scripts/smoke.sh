#!/bin/sh
# smoke.sh — the end-to-end smoke of the serving stack, run from the
# repository root (`make smoke`). Real processes and a real SIGKILL
# against one claim: the same bytes wherever a job or a session runs.
#
# It builds vcprofd, vcload, vclive and vcperf once and boots each
# topology once:
#   A        vcprofd -j 1 -sample 0: no pool width, no sampler;
#   B        vcprofd -j 4 -sample 25ms -trace;
#   cluster  3 shards and a gate (vcprofd -shards, R=2), then a fresh
#            second gate over the same shards for the warm pass.
# The seeded job mix M runs cold on A, cold on B (with `vcperf top -once
# -assert` mid-load), warm on B, cold through the gate and warm through
# the second gate, and every pass must print one digest. The session mix
# runs in-process, on A and through the gate (one digest), and the traced
# session S on A and through the gate (one deterministic trace). S's
# pinned shard is SIGKILLed after S's first feed, once the gate shows M
# and the session mix in flight: that one kill drives job failover,
# session re-anchor and S's traced re-anchor. Every daemon the smoke
# stops rather than kills must log bye within 2 s of SIGTERM.
set -eu

GO="${GO:-go}"
MIX="-n 90 -c 12 -seed 7 -heavy-every 15 -flat-prio -bench" # the job mix M
EXPS="-n 4 -c 4 -seed 7 -exp-every 1"                        # quick experiments: B's top-down rows
SESSIONS="-n 6 -c 3 -seed 11"                                # the session mix
SPEC='{"clip":"game1","frames":24,"div":8,"family":"svt-av1","crf":28,"preset":8,"gop":8,"fps":30,"deadline":16,"rungs":[36,44],"share":true}'
P99X=5        # light p99 x P99X <= heavy p99, on A and on B
CACHED_MIN=81 # of M's 90 jobs B's warm pass answers from its store (90%)
WARM_MIN=80   # % of the second gate's routes that land on a shard holding the bytes
SAVING_MIN=20 # % of instructions ABR ladder sharing saves
DRAIN_MS=2000 # SIGTERM to exit, for every daemon stopped

w="$(mktemp -d)"
pids=""
trap 'for p in $pids; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$w"' EXIT

say() { echo "smoke: $*"; }
fail() {
    echo "smoke: FAIL — $*" >&2
    exit 1
}

# boot <name> [vcprofd flags...]: starts vcprofd on a random port, logging
# to $w/<name>.log. Sets $addr, addr_<name> and pid_<name>.
boot() {
    name="$1"
    shift
    "$w/vcprofd" -addr 127.0.0.1:0 "$@" >"$w/$name.log" 2>&1 &
    pids="$pids $!"
    eval "pid_$name=$!"
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$w/$name.log")"
        [ -n "$addr" ] && { eval "addr_$name=$addr"; return 0; }
        sleep 0.05
    done
    cat "$w/$name.log" >&2
    fail "$name never reported its address"
}

# stop <name>: SIGTERM; the daemon must exit within DRAIN_MS and log bye.
stop() {
    eval "p=\$pid_$1"
    t0="$(date +%s%N)"
    kill -TERM "$p" 2>/dev/null || true
    while kill -0 "$p" 2>/dev/null; do
        ms=$((($(date +%s%N) - t0) / 1000000))
        [ "$ms" -lt "$DRAIN_MS" ] || fail "$1 still running $ms ms after SIGTERM, want < $DRAIN_MS"
        sleep 0.02
    done
    grep -q '^bye$' "$w/$1.log" || { tail "$w/$1.log" >&2; fail "$1 exited without a clean drain (no bye)"; }
}

# ran <log> <what> <cmd...>: runs cmd into $w/<log>.log and fails the
# smoke, with the log's tail, if it exits non-zero.
ran() {
    log="$w/$1.log"
    what="$2"
    shift 2
    "$@" >"$log" 2>&1 || { tail "$log" >&2; fail "$what failed"; }
    say "$what: $(head -n1 "$log")"
}

# mix <pass> <addr> [vcload flags...]: job mix M; all 90 jobs must be ok.
mix() {
    n="$1"
    at="$2"
    shift 2
    ran "$n" "job mix M '$n'" "$w/vcload" -addr "$at" $MIX "$@"
    grep -q '^vcload: 90 jobs ok' "$w/$n.log" || fail "'$n' did not report all 90 jobs ok"
}

# sessions <pass> [vclive flags...]: the session mix; all 6 must be ok.
sessions() {
    n="$1"
    shift
    ran "$n" "session mix '$n'" "$w/vclive" $SESSIONS "$@"
    grep -q '^vclive: 6 sessions ok' "$w/$n.log" || fail "'$n' did not report all 6 sessions ok"
}

digest_of() { sed -n 's/^digest //p' "$w/$1.log"; }

# same <ref> <pass>: the pass printed the reference pass's digest.
same() {
    d="$(digest_of "$2")"
    [ -n "$d" ] && [ "$d" = "$(digest_of "$1")" ] || fail "'$2' digest '$d' != '$1' digest '$(digest_of "$1")'"
}

# tails <pass>: light p99 x P99X <= heavy p99. Equal tails are what light
# jobs stuck behind heavy ones look like.
tails() {
    l="$(awk '$1 == "BenchmarkServeLatencyLightP99" { print $3 }' "$w/$1.log")"
    h="$(awk '$1 == "BenchmarkServeLatencyHeavyP99" { print $3 }' "$w/$1.log")"
    [ -n "$l" ] && [ -n "$h" ] || fail "'$1' printed no light/heavy p99 lines"
    awk -v l="$l" -v h="$h" -v x="$P99X" 'BEGIN { exit !(l > 0 && l * x <= h) }' ||
        fail "'$1': light p99 ${l}ns x $P99X exceeds heavy p99 ${h}ns — light jobs stuck behind heavy ones"
    say "$1: light p99 $(awk -v l="$l" -v h="$h" 'BEGIN { printf "%.0fx", h / l }') below heavy"
}

# num <field> <json>: an integer field of a flat JSON document.
num() { echo "$2" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"; }
post() { curl -fsS -H 'Content-Type: application/json' -X POST "$1" -d "$2"; }

# s_open <base-url>: creates S and feeds its first GOP. Sets $s_base,
# $sid, $trace and $pinned (the shard a gate pinned S to).
s_open() {
    s_base="$1"
    create="$(post "$s_base/v1/sessions" "{\"spec\":$SPEC}")" || fail "S create on $s_base"
    sid="$(echo "$create" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    pinned="$(echo "$create" | sed -n 's/.*"shard":"\([^"]*\)".*/\1/p')"
    trace="$(echo "$create" | sed -n 's/.*"trace":"\([^"]*\)".*/\1/p')"
    [ -n "$trace" ] || trace="s-$(echo "$create" | sed -n 's/.*"key":"\([0-9a-f]\{16\}\).*/\1/p')"
    [ -n "$sid" ] || fail "S create returned no id: $create"
    post "$s_base/v1/sessions/$sid/frames" '{"fed":8}' >/dev/null || fail "S first feed"
}

# s_close <name>: feeds S to EOS, then saves its merged trace as
# $w/<name>.det.json (deterministic view) and $w/<name>.full.json.
s_close() {
    post "$s_base/v1/sessions/$sid/frames" '{"fed":16}' >/dev/null || fail "S feed 16 on $1"
    post "$s_base/v1/sessions/$sid/frames" '{"fed":24,"eos":true}' >/dev/null || fail "S eos on $1"
    curl -fsS "$s_base/v1/cluster/trace/$trace?volatile=0" >"$w/$1.det.json" || fail "S det trace on $1"
    curl -fsS "$s_base/v1/cluster/trace/$trace" >"$w/$1.full.json" || fail "S full trace on $1"
}

say "building vcprofd vcload vclive vcperf"
for b in vcprofd vcload vclive vcperf; do
    "$GO" build -o "$w/$b" "./cmd/$b"
done

# In-process: the session mix's reference digest, at zero deadline
# misses, and ABR ladder sharing saving instructions at equal bytes.
sessions inproc
misses="$(sed -n 's/.*deadline-misses \([0-9]*\).*/\1/p' "$w/inproc.log")"
[ "$misses" = "0" ] || fail "$misses deadline misses at the calibrated feed rate, want 0"
ran ladder "ladder compare" "$w/vclive" -ladder-compare
saving="$(sed -n 's/.*saving=\([0-9.]*\)%.*/\1/p' "$w/ladder.log")"
awk -v s="${saving:-0}" -v m="$SAVING_MIN" 'BEGIN { exit !(s >= m) }' || fail "ladder-share saving '${saving}'% below ${SAVING_MIN}%"
grep -q 'bytes-equal=true digest-equal=true' "$w/ladder.log" || fail "ladder sharing changed output bytes"

say "A: vcprofd -j 1 -sample 0"
boot A -store "$w/store-A" -j 1 -sample 0
a="$addr"
mix A-cold "$a"
tails A-cold
sessions A-sessions -addr "$a"
same inproc A-sessions
s_open "http://$a"
s_close A
stop A
[ -f "$w/store-A/index.json" ] || fail "A's store index not flushed on drain"

say "B: vcprofd -j 4 -sample 25ms -trace"
boot B -store "$w/store-B" -j 4 -sample 25ms -trace
b="$addr"
ran B-exps "experiment mix" "$w/vcload" -addr "$b" $EXPS
mix B-cold "$b" &
load=$!
# Top-down sums to 1 and p99 >= p50 while M runs; exit 1 may be a racing
# commit and is retried, anything else (3: unreachable) is fatal.
top=1
for _ in $(seq 1 120); do
    rc=0
    "$w/vcperf" top -addr "$b" -once -assert >"$w/top.log" 2>&1 || rc=$?
    [ "$rc" -eq 0 ] && { top=0; break; }
    [ "$rc" -eq 1 ] || { cat "$w/top.log" >&2; fail "vcperf top exit $rc"; }
    sleep 0.25
done
[ "$top" -eq 0 ] || { cat "$w/top.log" >&2; fail "vcperf top -assert never passed mid-load"; }
say "B: vcperf top asserts hold mid-load"
wait "$load" || fail "job mix M 'B-cold' failed"
same A-cold B-cold
tails B-cold
mix B-warm "$b"
same A-cold B-warm
cached="$(sed -n 's/^cached-at-submit \([0-9]*\).*/\1/p' "$w/B-warm.log")"
[ "${cached:-0}" -ge "$CACHED_MIN" ] || fail "B's warm pass cached '$cached'/90, want >= $CACHED_MIN"
"$w/vcperf" series -addr "$b" -window 8 >"$w/series.log" || fail "vcperf series"
grep -q "svc.queue.depth" "$w/series.log" || { cat "$w/series.log" >&2; fail "series missing svc.queue.depth"; }
"$w/vcperf" flame -addr "$b" -o "$w/folded.txt" 2>/dev/null || fail "vcperf flame"
awk 'NF != 2 { exit 1 }' "$w/folded.txt" && grep -q "stage/" "$w/folded.txt" ||
    { head "$w/folded.txt" >&2; fail "folded stacks malformed"; }
stop B
[ -f "$w/store-B/index.json" ] || fail "B's store index not flushed on drain"

say "cluster: 3 shards + a gate (R=2)"
shards=""
for i in 0 1 2; do
    boot "s$i" -store "$w/store-s$i" -j 1 -name "s$i"
    shards="$shards${shards:+,}s$i=http://$addr"
done
boot gate1 -shards "$shards" -replicas 2
g="$addr"
s_open "http://$g"
[ -n "$pinned" ] || fail "the gate named no shard for S: $create"
mix gate-cold "$g" -gate &
load=$!
sessions gate-sessions -addr "$g" &
live=$!
# The kill lands once the gate has M's jobs and the session mix in flight
# and S's shard holds two of M's jobs (running or queued): no job can
# finish in the moment before the kill and leave nothing to fail over.
eval "victim=\$pid_$pinned vaddr=\$addr_$pinned"
inflight=""
for _ in $(seq 1 200); do
    st="$(curl -fsS "http://$g/v1/cluster/stats")"
    [ "$(num inflight "$st")" -ge 1 ] && [ "$(num sessions_opened "$st")" -ge 2 ] &&
        curl -fsS "http://$vaddr/metrics" |
        awk '$1 == "vcprof_svc_jobs_running" || $1 == "vcprof_svc_queue_depth" { n += $2 } END { exit !(n >= 2) }' &&
        { inflight=y; break; }
    sleep 0.05
done
[ -n "$inflight" ] || fail "the gate never showed M and the session mix in flight on $pinned: $st"
kill -9 "$victim"
say "cluster: SIGKILL S's pinned shard $pinned"
s_close gate
wait "$load" || fail "job mix M 'gate-cold' failed"
wait "$live" || fail "session mix 'gate-sessions' failed"
same A-cold gate-cold
same inproc gate-sessions
# The kill was mid-run: jobs failed over and sessions re-anchored.
st="$(curl -fsS "http://$g/v1/cluster/stats")"
[ "$(num failovers "$st")" -ge 1 ] || fail "no job failed over: the kill landed after the load ($st)"
[ "$(num session_failovers "$st")" -ge 1 ] || fail "no session re-anchored: the kill landed after the load ($st)"
say "cluster: failovers $(num failovers "$st"), session failovers $(num session_failovers "$st")"
cmp -s "$w/A.det.json" "$w/gate.det.json" ||
    { diff "$w/A.det.json" "$w/gate.det.json" >&2; fail "S's deterministic trace differs between A and the gate"; }
grep -q 'failover-re-anchor' "$w/gate.full.json" || fail "S's full trace records no failover-re-anchor"
! grep -q 'failover-re-anchor' "$w/gate.det.json" || fail "the volatile re-anchor leaked into S's deterministic trace"
"$w/vcperf" trace -addr "$g" -det -o "$w/vcperf.det.json" "$trace" 2>/dev/null || fail "vcperf trace"
cmp -s "$w/vcperf.det.json" "$w/gate.det.json" || fail "vcperf trace -det bytes differ from the raw endpoint"
stop gate1

# A fresh gate over the quiet cluster: federation, SLO, then M warm.
boot gate2 -shards "$shards" -replicas 2
g="$addr"
curl -fsS "http://$g/v1/cluster/metrics?volatile=0" >"$w/fed1.prom"
curl -fsS "http://$g/v1/cluster/metrics?volatile=0" >"$w/fed2.prom"
cmp -s "$w/fed1.prom" "$w/fed2.prom" ||
    { diff "$w/fed1.prom" "$w/fed2.prom" >&2; fail "federated ?volatile=0 exposition not byte-stable"; }
grep -q 'shard="cluster"' "$w/fed1.prom" || fail "federation has no shard=\"cluster\" roll-up rows"
"$w/vcperf" slo -addr "$g" -assert >"$w/slo.log" 2>&1 || { cat "$w/slo.log" >&2; fail "vcperf slo -assert tripped"; }
grep -q '^slo ok$' "$w/slo.log" || fail "vcperf slo -assert did not print 'slo ok'"
mix gate-warm "$g" -gate
same A-cold gate-warm
rate="$(sed -n 's/^gate warm-rate \([0-9.]*\)%.*/\1/p' "$w/gate-warm.log")"
awk -v r="${rate:-0}" -v m="$WARM_MIN" 'BEGIN { exit !(r >= m) }' || fail "warm-route rate '${rate}'% below ${WARM_MIN}%"
stop gate2
for i in 0 1 2; do
    [ "s$i" = "$pinned" ] || stop "s$i"
done

say "OK — job mix digest $(digest_of A-cold) on 5 passes, session mix digest $(digest_of inproc) on 3," \
    "S's deterministic trace equal on A and the gate, ladder saving ${saving}%, warm-route ${rate}%"
