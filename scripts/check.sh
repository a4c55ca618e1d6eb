#!/bin/sh
# check.sh — the repo's full verification gate:
#   formatting, vet, build, and the Go tests (which also hold the pglint
#   workload and golden-corpus checks, the page-table / parallel-harness
#   parity tests, and the BENCH_sim.json golden: `pgbench -bench`
#   regenerated, checked and byte-compared with the committed document);
#   then the production-hardening soaks: the chaos matrix (every workload
#   under fixed-seed fault schedules), the trap containment experiment,
#   the attribution-exact metrics export, the pgserved smoke (HTTP replay
#   parity, the ?spans=1 stream matching pgtrace -ndjson -spans with
#   leaf-span cycles reconciling to kernel-charged cycles, the adversarial
#   corpus replayed bit-for-bit, a 32-variant mix simulated once per
#   variant, a planted UAF bucketed with its forensic report, graceful
#   drain, the removed fresh-machine path and router flag refused), the
#   early-SIGTERM smoke (20 boots, each signalled the moment its handshake
#   line appears, each draining cleanly), and the elision soundness gate
#   and points-to subset fuzz under -race.
#
# Host wall-clock cost is measured by perfbench (BENCHMARK.json), not here.
#
# Usage: scripts/check.sh   (from the repo root)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== chaos soak (fixed-seed fault schedules) =="
tmp=$(mktemp -d -t pgcheck.XXXXXX)
servepid=""
earlypid=""
trap 'kill $servepid $earlypid 2>/dev/null || true; rm -rf "$tmp"' EXIT
pgbench=$tmp/pgbench
pgserved=$tmp/pgserved
pgtracebin=$tmp/pgtrace
servebody=$tmp/servebody
offline=$tmp/offline
go build -o "$pgbench" ./cmd/pgbench
go build -o "$pgserved" ./cmd/pgserved
go build -o "$pgtracebin" ./cmd/pgtrace
# GenChaosStudy enforces the soak invariants internally (zero panics,
# fault-free parity, monotone degradation); a violation is a non-zero exit.
"$pgbench" -study chaos >/dev/null
echo "chaos soak: all workloads x all schedules clean"

echo "== trap containment =="
"$pgbench" -study containment

echo "== observability export (attribution exactness) =="
metrics=$tmp/metrics.json
# -metrics fails unless every workload's per-site attribution sums exactly
# to the kernel's charged cycles.
"$pgbench" -metrics "$metrics"

echo "== pgserved smoke (HTTP replay parity + graceful drain) =="
# Start pgserved, replay the bundled faulted trace over HTTP from 64
# concurrent-capable clients (byte-identity to the offline replay is
# asserted inside the load generator), diff one fetched body against
# pgtrace -ndjson, then SIGTERM and require a clean drain.
servelog=$tmp/servelog

# The router role was deleted: its flag is now undefined, a usage error.
rc=0
"$pgserved" -route 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "pgserved with the removed router flag exited $rc, want 2" >&2
    exit 1
fi

"$pgserved" -addr 127.0.0.1:0 >"$servelog" &
servepid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^pgserved: listening on //p' "$servelog")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "pgserved did not start" >&2
    exit 1
fi

"$pgserved" -load -url "http://$addr" -trace trace/testdata/faulted.trace \
    -n 64 -c 16 -out "$servebody"
"$pgtracebin" -ndjson trace/testdata/faulted.trace >"$offline" || [ $? -eq 2 ]
if ! diff -q "$servebody" "$offline" >/dev/null; then
    echo "pgserved HTTP replay diverges from pgtrace -ndjson:" >&2
    diff "$servebody" "$offline" >&2 || true
    exit 1
fi

# Span-stream parity + cycle reconciliation: the ?spans=1 body (replay
# NDJSON + span lines + trailer) must match pgtrace -ndjson -spans
# byte-for-byte, and the trailer must reconcile the leaf-span cycle sum
# against the kernel's charged cycles exactly — the tracer's conservation
# law, asserted end to end over HTTP.
"$pgserved" -load -spans -url "http://$addr" -trace trace/testdata/faulted.trace \
    -n 8 -c 4 -out "$servebody"
"$pgtracebin" -ndjson -spans trace/testdata/faulted.trace >"$offline" || [ $? -eq 2 ]
if ! diff -q "$servebody" "$offline" >/dev/null; then
    echo "pgserved ?spans=1 body diverges from pgtrace -ndjson -spans:" >&2
    diff "$servebody" "$offline" >&2 || true
    exit 1
fi
trailer=$(grep '"type":"spans"' "$servebody")
leaf=${trailer#*\"leaf_cycles\":}; leaf=${leaf%%,*}
charged=${trailer#*\"charged_cycles\":}; charged=${charged%\}}
if [ -z "$leaf" ] || [ -z "$charged" ] || [ "$leaf" != "$charged" ]; then
    echo "span reconciliation failed: leaf_cycles=$leaf charged_cycles=$charged" >&2
    echo "$trailer" >&2
    exit 1
fi
echo "span stream: byte-identical via HTTP, $leaf leaf cycles == charged exactly"

# Every adversarial corpus trace must replay bit-for-bit through pgserved
# too: same NDJSON bytes over HTTP as pgtrace produces offline.
for t in trace/testdata/adversarial/*.trace; do
    "$pgserved" -load -url "http://$addr" -trace "$t" -n 4 -c 2 -out "$servebody"
    "$pgtracebin" -ndjson "$t" >"$offline" || [ $? -eq 2 ]
    if ! diff -q "$servebody" "$offline" >/dev/null; then
        echo "pgserved replay of $t diverges from pgtrace -ndjson:" >&2
        diff "$servebody" "$offline" >&2 || true
        exit 1
    fi
done
echo "adversarial corpus: 4 traces byte-identical through pgserved"

# A round-robin mix of 32 distinct variants: every response is checked
# against the offline replay, and the server simulates each variant exactly
# once (every repeat is a cache hit).
misses() {
    curl -sf "http://$addr/metrics" | sed -n 's/^pg_cache_misses_total //p'
}
before=$(misses)
"$pgserved" -load -url "http://$addr" -trace trace/testdata/faulted.trace \
    -n 64 -c 8 -distinct 32
mix=$(( $(misses) - before ))
if [ "$mix" -ne 32 ]; then
    echo "32-variant mix simulated $mix times, want 32 (each variant once)" >&2
    exit 1
fi
echo "variant mix: 32 variants, each simulated once"

# Crash buckets: replay a planted-UAF corpus trace, then require GET
# /buckets to hold a bucket whose representative is a full forensic report.
"$pgserved" -load -url "http://$addr" -trace trace/testdata/adversarial/uaf_gc_race.trace \
    -n 4 -c 2
buckets=$(curl -sf "http://$addr/buckets")
if ! printf '%s' "$buckets" | jq -e \
    '.buckets[] | select(.representative.free_site != null and .representative.fault_addr != null)' \
    >/dev/null; then
    echo "/buckets lacks a forensic representative after a planted-UAF replay: $buckets" >&2
    exit 1
fi
echo "crash buckets: planted UAF bucketed with forensics"

kill -TERM "$servepid"
if ! wait "$servepid"; then
    echo "pgserved did not drain cleanly on SIGTERM" >&2
    exit 1
fi
servepid=""
if ! grep -q "drained cleanly" "$servelog"; then
    echo "pgserved drain message missing:" >&2
    cat "$servelog" >&2
    exit 1
fi
echo "pgserved smoke: 64 replays byte-identical to offline, clean SIGTERM drain"

echo "== pgserved early-SIGTERM smoke (20 boots) =="
# A supervisor may SIGTERM pgserved as soon as its handshake line appears.
# The signal handler must already be in place then: read each boot's first
# line from a FIFO, signal at once, and require exit 0 and a clean drain.
fifo=$tmp/handshake
mkfifo "$fifo"
for i in $(seq 1 20); do
    "$pgserved" -addr 127.0.0.1:0 >"$fifo" &
    earlypid=$!
    exec 3<"$fifo"
    IFS= read -r line <&3 || line=""
    kill -TERM "$earlypid" 2>/dev/null || true
    rest=$(cat <&3)
    exec 3<&-
    rc=0
    wait "$earlypid" || rc=$?
    earlypid=""
    case "$line" in
    "pgserved: listening on "*) ;;
    *)
        echo "early SIGTERM boot $i: no handshake line, got: $line" >&2
        exit 1
        ;;
    esac
    if [ "$rc" -ne 0 ] || ! printf '%s\n' "$rest" | grep -q "drained cleanly"; then
        echo "early SIGTERM boot $i: exit $rc, want 0 and a clean drain:" >&2
        printf '%s\n%s\n' "$line" "$rest" >&2
        exit 1
    fi
done
echo "early SIGTERM: 20 boots signalled at the handshake, 20 clean drains"

echo "== soundness gate (-race) =="
# PROVEN-SAFE uses never trap, elision-miss stays 0, POSSIBLE findings carry
# witnesses and the elidable sites match their pins on every
# workload/example, and the points-to subset holds on random programs.
go test -race ./internal/experiment -run TestSoundnessGate -count=1
go test -race ./internal/minic/driver -run TestDifferentialPointsToSubset -count=1
