#!/bin/sh
# CLI-level smoke for the fleet health plane, at each worker count given
# on the command line (`obs_smoke.sh 1 4`): boot `crimson serve` with
# the HTTP observability endpoint, wait for /healthz to answer 200 via
# `crimson health`, push a small query burst through `crimson connect`,
# then scrape /metrics and require the merged server.requests counter
# to equal the sum of the per-worker slices at quiescence, and the
# node-cache and pager hit counters to have risen over the burst.
# Finishes with a clean SIGTERM drain.
set -eu

BIN=${CRIMSON_BIN:-_build/default/bin/crimson.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$BIN" simulate --model yule --leaves 200 --seed 7 -o "$WORK/t.nex" >/dev/null
"$BIN" load -r "$WORK/repo" -n smoke -f 8 "$WORK/t.nex" >/dev/null

for W in "$@"; do
    SOCK="$WORK/s$W.sock"
    OBS="$WORK/obs$W.sock"
    "$BIN" serve -r "$WORK/repo" --listen "unix:$SOCK" --workers "$W" \
        --obs-listen "unix:$OBS" --max-sessions 8 &
    PID=$!

    # Health-gate the boot: the endpoint answers as soon as the socket
    # binds, but /healthz only reports 200 once every worker has a
    # heartbeat.
    i=0
    until "$BIN" health --to "unix:$OBS" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "obs-smoke: /healthz never answered 200 (workers=$W)" >&2
            kill -9 "$PID" 2>/dev/null || true
            exit 1
        fi
        sleep 0.05
    done

    BEFORE=$("$BIN" health --to "unix:$OBS" --get /metrics)

    # A burst of real requests spread across the fleet.
    for _ in 1 2 3; do
        "$BIN" connect --to "unix:$SOCK" \
            'HELLO' 'USE smoke' 'QUERY lca(T0, T7)' 'QUERY distance(T0, T9)' \
            'STATS' 'QUIT' >/dev/null
    done

    METRICS=$("$BIN" health --to "unix:$OBS" --get /metrics)

    # The merged counter must equal the sum of the per-worker slices
    # once the burst has drained (slices increment before the fleet
    # total, so anything else means the merge lost or invented
    # requests).
    printf '%s\n' "$METRICS" | awk -v w="$W" '
        $1 == "crimson_server_requests" { merged = $2 }
        $1 ~ /^crimson_server_worker_[0-9]+_requests$/ { slices += $2 }
        END {
            if (merged == "" || slices == 0) {
                print "obs-smoke: exposition lacks request counters" > "/dev/stderr"
                exit 1
            }
            if (merged != slices) {
                printf "obs-smoke: workers=%d merged %d != sum of slices %d\n", \
                    w, merged, slices > "/dev/stderr"
                exit 1
            }
            printf "obs-smoke: workers=%d merged server.requests %d = sum of %s\n", \
                w, merged, "worker slices"
        }
    '

    # Storage and node-cache counters are charged on the domain that
    # serves the query; at --workers 4 that is never the domain that
    # answers /metrics, so both must read the sum over every domain.
    for NAME in crimson_core_node_cache_hit crimson_storage_pager_hit; do
        B=$(printf '%s\n' "$BEFORE" | awk -v n="$NAME" '$1 == n { print $2 }')
        A=$(printf '%s\n' "$METRICS" | awk -v n="$NAME" '$1 == n { print $2 }')
        if [ -z "$B" ] || [ -z "$A" ] || [ "$A" -le "$B" ]; then
            echo "obs-smoke: workers=$W $NAME did not rise" \
                "over the burst (${B:-?} -> ${A:-?})" >&2
            exit 1
        fi
        echo "obs-smoke: workers=$W $NAME $B -> $A"
    done

    # The other routes answer and carry the expected shapes.
    "$BIN" health --to "unix:$OBS" --get /varz | grep -q '"workers"'
    "$BIN" health --to "unix:$OBS" --get /slowlog | grep -q '"entries"'
    "$BIN" health --to "unix:$OBS" --json | grep -q '"healthy":true'

    kill -TERM "$PID"
    if ! wait "$PID"; then
        echo "obs-smoke: server exited non-zero on SIGTERM (workers=$W)" >&2
        exit 1
    fi
    if [ -e "$OBS" ]; then
        echo "obs-smoke: observability socket not removed on shutdown (workers=$W)" >&2
        exit 1
    fi
    echo "obs-smoke: workers=$W ok"
done
