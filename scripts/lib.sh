# lib.sh — plumbing the smoke scripts share. Source it from the
# repository root after setting SMOKE (the message prefix, e.g.
# "serve-smoke"). It creates $workdir and, on exit, SIGKILLs whatever is
# still listed in $pids and removes $workdir.

GO="${GO:-go}"
workdir="$(mktemp -d)"
pids=""
trap 'for p in $pids; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT

fail() {
    echo "$SMOKE: FAIL — $*" >&2
    exit 1
}

# build <name>...: builds ./cmd/<name> into $workdir/<name>.
build() {
    echo "$SMOKE: building $*"
    for b in "$@"; do
        "$GO" build -o "$workdir/$b" "./cmd/$b"
    done
}

# wait_addr <log>: echoes the "listening on" address once a daemon
# reports it (port 0 lets the kernel pick), or fails the smoke.
wait_addr() {
    for _ in $(seq 1 100); do
        a="$(sed -n 's/^listening on //p' "$1" | head -n1)"
        [ -n "$a" ] && { echo "$a"; return 0; }
        sleep 0.05
    done
    cat "$1" >&2
    fail "daemon never reported its address ($1)"
}

# boot <logname> <binary> [flags...]: starts $workdir/<binary> on a
# random port, logging to $workdir/<logname>.log. Sets $pid and $addr
# and adds the pid to $pids.
boot() {
    boot_log="$workdir/$1.log"
    boot_bin="$workdir/$2"
    shift 2
    "$boot_bin" -addr 127.0.0.1:0 "$@" >"$boot_log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    addr="$(wait_addr "$boot_log")"
}

# stop_pid <pid> <what> [log]: SIGTERM and require the process to exit;
# with a log, also require the "bye" line of a clean drain.
stop_pid() {
    kill -TERM "$1" 2>/dev/null || true
    for _ in $(seq 1 200); do
        kill -0 "$1" 2>/dev/null || break
        sleep 0.05
    done
    if kill -0 "$1" 2>/dev/null; then
        fail "$2 did not drain on SIGTERM"
    fi
    if [ -n "${3:-}" ] && ! grep -q "^bye$" "$3"; then
        tail "$3" >&2
        fail "$2 exited without a clean drain"
    fi
}

# digest_of <logname>: the digest line a vcload/vclive pass printed.
digest_of() { sed -n 's/^digest //p' "$workdir/$1.log"; }
