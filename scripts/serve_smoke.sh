#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the serving layer.
#
# Boots vcprofd on a random port with a fresh store, drives it with
# vcload twice (same seed), and checks the contract the service makes:
#   1. zero failed jobs on either pass;
#   2. the two passes produce the same order-independent digest
#      (serving is deterministic);
#   3. the second pass is answered almost entirely from the result
#      store (>= 90% cached at submit).
# Finally it SIGTERMs the daemon and requires a clean drain.
#
# Tunables (env): SMOKE_JOBS (default 200), SMOKE_CONC (default 16).
set -eu

JOBS="${SMOKE_JOBS:-200}"
CONC="${SMOKE_CONC:-16}"
SMOKE=serve-smoke
. scripts/lib.sh

build vcprofd vcload
boot daemon vcprofd -store "$workdir/store" -j 4
daemon_pid=$pid
echo "serve-smoke: daemon on $addr (pid $daemon_pid)"

run_pass() {
    "$workdir/vcload" -addr "$addr" -n "$JOBS" -c "$CONC" -seed 7 | tee "$workdir/$1.log"
}

echo "serve-smoke: pass 1 ($JOBS jobs, c=$CONC)"
run_pass pass1
echo "serve-smoke: pass 2 (warm store)"
run_pass pass2

# vcload exits non-zero on any failed job (set -e catches it); the ok
# line is belt and braces.
for p in pass1 pass2; do
    grep -q "^vcload: $JOBS jobs ok" "$workdir/$p.log" || fail "$p did not report all jobs ok"
done

d1="$(digest_of pass1)"
d2="$(digest_of pass2)"
if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
    fail "digests differ across passes ($d1 vs $d2)"
fi

# Pass 2 must be served from the store: >= 90% of submissions answered
# as already-cached.
cached="$(sed -n 's/^cached-at-submit \([0-9]*\).*/\1/p' "$workdir/pass2.log")"
threshold=$((JOBS * 90 / 100))
if [ -z "$cached" ] || [ "$cached" -lt "$threshold" ]; then
    fail "pass 2 cached $cached/$JOBS, need >= $threshold"
fi

echo "serve-smoke: draining daemon"
stop_pid "$daemon_pid" daemon "$workdir/daemon.log"
[ -f "$workdir/store/index.json" ] || fail "store index not flushed on drain"

echo "serve-smoke: OK — $JOBS jobs x2, identical digest $d1, $cached cached on warm pass, clean drain"
