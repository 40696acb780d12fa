#!/bin/sh
# Online learning smoke test: train a tiny model with the real CLI, start
# `autodetect serve --learn` with a low absorb threshold, stream columns
# in through `query --learn` until the learner retrains and swaps, and
# check the swap is visible as a generation bump and, in GET /v1/stats,
# as `learn.swaps >= 1` with `learn.errors == 0`.
#
#   scripts/learn_smoke.sh path/to/autodetect
#
# Exits non-zero if any step fails, if the learner never swaps or counts
# an error, or if the server does not exit cleanly after `stop`.
set -eu

BIN=${1:?usage: learn_smoke.sh path/to/autodetect-binary}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/adt-learn-smoke.XXXXXX")
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== learn smoke: training a miniature model"
"$BIN" gen-corpus --columns 600 --out "$WORK/seed.jsonl" >/dev/null 2>&1
mkdir -p "$WORK/models"
"$BIN" train --corpus "$WORK/seed.jsonl" --examples 2000 --space coarse \
    --out "$WORK/models/default.bin" >/dev/null 2>&1

# A small delta the queries upload; one row per scan keeps each tap
# under the learn queue's batch granularity.
cat > "$WORK/delta.csv" <<'EOF'
when,amount,code
2019-03-01,120,AB-1001
2019-03-02,95,AB-1008
2019/03/04,130,AB-1015
2019-03-05,88,AB-1022
EOF

echo "== learn smoke: starting server with the learn loop on"
"$BIN" serve --models "$WORK/models" --addr 127.0.0.1:0 \
    --learn --learn-absorb 6 --learn-interval 3600 \
    --learn-seed "$WORK/seed.jsonl" --examples 2000 --space coarse \
    > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVER_PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^listening on //p' "$WORK/serve.out" | head -n 1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "learn smoke FAILED: server exited early" >&2
        cat "$WORK/serve.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ADDR" ]; then
    echo "learn smoke FAILED: server never announced its address" >&2
    exit 1
fi
echo "== learn smoke: server is at $ADDR"

# Two learn-tapped queries upload 3 columns each, crossing the 6-column
# absorb threshold and triggering a retrain + swap.
"$BIN" query --addr "$ADDR" --learn "$WORK/delta.csv" > "$WORK/query1.out"
"$BIN" query --addr "$ADDR" --learn "$WORK/delta.csv" > "$WORK/query2.out"
if ! grep -q "generation 1" "$WORK/query1.out"; then
    echo "learn smoke FAILED: first query not served by generation 1:" >&2
    cat "$WORK/query1.out" >&2
    exit 1
fi

# Wait for the learner to retrain and swap (visible in /v1/stats).
echo "== learn smoke: waiting for the retrain + swap"
i=0
SWAPPED=0
while [ $i -lt 600 ]; do
    STATS=$("$BIN" query --addr "$ADDR" "$WORK/delta.csv" 2>/dev/null || true)
    if echo "$STATS" | grep -q "generation 2"; then
        SWAPPED=1
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ "$SWAPPED" != "1" ]; then
    echo "learn smoke FAILED: learner never swapped a new generation in" >&2
    cat "$WORK/serve.err" >&2
    exit 1
fi
echo "== learn smoke: generation 2 is live"

# The swap is counted in /v1/stats, and nothing in the learn loop failed.
if ! python3 - "$ADDR" <<'EOF'
import json, sys, urllib.request
# Loopback only: ignore any proxy the environment names.
opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
with opener.open("http://%s/v1/stats" % sys.argv[1], timeout=10) as r:
    learn = json.load(r)["learn"]
if learn.get("errors") != 0 or learn.get("swaps", 0) < 1:
    sys.exit("learn smoke FAILED: /v1/stats learn section %r" % learn)
print("== learn smoke: learn.swaps %d, learn.errors 0" % learn["swaps"])
EOF
then
    cat "$WORK/serve.err" >&2
    exit 1
fi

echo "== learn smoke: stopping server"
"$BIN" stop --addr "$ADDR"
( sleep 30; kill "$SERVER_PID" 2>/dev/null ) &
WATCHDOG=$!
if ! wait "$SERVER_PID"; then
    echo "learn smoke FAILED: server did not exit cleanly after stop" >&2
    cat "$WORK/serve.err" >&2
    exit 1
fi
SERVER_PID=""
kill "$WATCHDOG" 2>/dev/null || true
echo "learn smoke OK"
