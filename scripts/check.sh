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
#   corpus replayed bit-for-bit, graceful drain, the removed fresh-machine
#   path refused), the router smoke (two backends, routed bytes diffed
#   against pgtrace -ndjson, a 32-variant mix simulated on both backends,
#   merged crash buckets checked as the per-bucket sum of the backends), and
#   the elision soundness gate and points-to subset fuzz under -race.
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
b1pid=""
b2pid=""
routerpid=""
trap 'kill $servepid $b1pid $b2pid $routerpid 2>/dev/null || true; rm -rf "$tmp"' EXIT
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

# Serving has one configuration: the removed fresh-machine path is refused
# with a usage error.
rc=0
"$pgserved" -snapshots=false 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "pgserved -snapshots=false exited $rc, want 2" >&2
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

echo "== pgserved router smoke (2 backends, consistent hashing, clean drain) =="
# Two backends behind a -route front: load through the router (byte-identity
# per response asserted inside the generator), diff one routed body against
# pgtrace -ndjson, send a round-robin mix of 32 variants and require both
# backends to have simulated some of it (the router shards), then SIGTERM all
# three and require clean drains.
b1log=$tmp/b1log
b2log=$tmp/b2log
routerlog=$tmp/routerlog

wait_addr() {
    for _ in $(seq 1 50); do
        a=$(sed -n 's/^pgserved: listening on //p' "$1")
        if [ -n "$a" ]; then
            echo "$a"
            return 0
        fi
        sleep 0.1
    done
    return 1
}

"$pgserved" -addr 127.0.0.1:0 >"$b1log" &
b1pid=$!
"$pgserved" -addr 127.0.0.1:0 >"$b2log" &
b2pid=$!
b1addr=$(wait_addr "$b1log") || { echo "backend 1 did not start" >&2; exit 1; }
b2addr=$(wait_addr "$b2log") || { echo "backend 2 did not start" >&2; exit 1; }
"$pgserved" -route -addr 127.0.0.1:0 \
    -backends "http://$b1addr,http://$b2addr" >"$routerlog" &
routerpid=$!
raddr=$(wait_addr "$routerlog") || { echo "router did not start" >&2; exit 1; }

"$pgserved" -load -url "http://$raddr" -trace trace/testdata/faulted.trace \
    -n 32 -c 8 -out "$servebody"
"$pgtracebin" -ndjson trace/testdata/faulted.trace >"$offline" || [ $? -eq 2 ]
if ! diff -q "$servebody" "$offline" >/dev/null; then
    echo "routed replay diverges from pgtrace -ndjson:" >&2
    diff "$servebody" "$offline" >&2 || true
    exit 1
fi
misses() {
    curl -sf "http://$1/metrics" | sed -n 's/^pg_cache_misses_total //p'
}
b1before=$(misses "$b1addr")
b2before=$(misses "$b2addr")
# 32 keys, not 8: the backends' ports, and so the ring placement, change per
# run, and 8 keys all land on one backend about once in 128 runs.
"$pgserved" -load -url "http://$raddr" -trace trace/testdata/faulted.trace \
    -n 64 -c 8 -distinct 32
b1mix=$(( $(misses "$b1addr") - b1before ))
b2mix=$(( $(misses "$b2addr") - b2before ))
if [ "$b1mix" -lt 1 ] || [ "$b2mix" -lt 1 ] || [ $((b1mix + b2mix)) -ne 32 ]; then
    echo "router did not shard the 32-variant mix: backend misses $b1mix + $b2mix, want both >= 1, sum 32" >&2
    exit 1
fi

# Fleet crash buckets: replay a planted-UAF corpus trace through the router,
# then require the router's merged GET /buckets to be exactly the per-bucket
# sum of the two backend databases (counts add, keys union) and to carry a
# full forensic representative for the planted trace.
"$pgserved" -load -url "http://$raddr" -trace trace/testdata/adversarial/uaf_gc_race.trace \
    -n 4 -c 2
rbuckets=$(curl -sf "http://$raddr/buckets")
b1buckets=$(curl -sf "http://$b1addr/buckets")
b2buckets=$(curl -sf "http://$b2addr/buckets")
counts() {
    printf '%s' "$1" | jq -S '[.buckets[] | {key: "\(.alloc_site)|\(.free_site)", count}]
        | group_by(.key) | map({(.[0].key): (map(.count) | add)}) | add'
}
rsum=$(counts "$rbuckets")
bsum=$(printf '%s\n%s' "$b1buckets" "$b2buckets" | jq -s -S '[.[].buckets[]
    | {key: "\(.alloc_site)|\(.free_site)", count}]
    | group_by(.key) | map({(.[0].key): (map(.count) | add)}) | add')
if [ -z "$rsum" ] || [ "$rsum" = "null" ]; then
    echo "router /buckets empty after a planted-UAF replay: $rbuckets" >&2
    exit 1
fi
if [ "$rsum" != "$bsum" ]; then
    echo "router /buckets merge is not the per-bucket sum of the backends" >&2
    printf 'router sum:  %s\nbackend sum: %s\n' "$rsum" "$bsum" >&2
    exit 1
fi
if ! printf '%s' "$rbuckets" | jq -e \
    '.buckets[] | select(.representative.free_site != null and .representative.fault_addr != null)' \
    >/dev/null; then
    echo "router /buckets lacks a forensic representative report" >&2
    exit 1
fi
echo "crash buckets: planted UAF bucketed with forensics, router merge sums the backends"

for pid in "$routerpid" "$b1pid" "$b2pid"; do
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "router smoke: pid $pid did not drain cleanly on SIGTERM" >&2
        exit 1
    fi
done
routerpid=""
b1pid=""
b2pid=""
for log in "$routerlog" "$b1log" "$b2log"; do
    if ! grep -q "drained cleanly" "$log"; then
        echo "router smoke: drain message missing in $log:" >&2
        cat "$log" >&2
        exit 1
    fi
done
echo "router smoke: routed bytes identical to offline, 32 variants sharded $b1mix/$b2mix, 3 clean drains"

echo "== soundness gate (-race) =="
# PROVEN-SAFE uses never trap, elision-miss stays 0, POSSIBLE findings carry
# witnesses and the elidable sites match their pins on every
# workload/example, and the points-to subset holds on random programs.
go test -race ./internal/experiment -run TestSoundnessGate -count=1
go test -race ./internal/minic/driver -run TestDifferentialPointsToSubset -count=1
