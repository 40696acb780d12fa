#!/bin/sh
# Serving smoke test: train a tiny model with the real CLI, start
# `autodetect serve` on an ephemeral port, round-trip a query, and shut
# the server down cleanly.
#
#   scripts/serve_smoke.sh path/to/autodetect
#
# Exits non-zero if any step fails, if the known-dirty value is not
# flagged by the plain scan or by a union ensemble, if a header holding
# `"`, `\`, a tab and a non-ASCII character does not come back verbatim,
# if a removed merge policy is not refused with the valid ones named, if
# `/v1/stats` does not show three clean scans with every phase timed and
# warm caches holding values within their byte bound, or if the server
# does not exit cleanly after `stop`.
set -eu

BIN=${1:?usage: serve_smoke.sh path/to/autodetect-binary}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/adt-serve-smoke.XXXXXX")
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== serve smoke: training a miniature model"
"$BIN" gen-corpus --columns 2500 --out "$WORK/corpus.jsonl" >/dev/null 2>&1
mkdir -p "$WORK/models"
"$BIN" train --corpus "$WORK/corpus.jsonl" --examples 5000 --space coarse \
    --out "$WORK/models/default.bin" >/dev/null 2>&1

cat > "$WORK/ledger.csv" <<'EOF'
when,amount
2019-03-01,120
2019-03-02,95
2019/03/04,130
2019-03-05,88
EOF

# Two HTTP workers of one engine thread each: at most two pooled scan
# caches, whatever the machine's core count.
WORKERS=2
echo "== serve smoke: starting server"
"$BIN" serve --models "$WORK/models" --addr 127.0.0.1:0 \
    --workers "$WORKERS" --threads 1 \
    > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVER_PID=$!

# Wait for the "listening on ADDR" banner (the bound ephemeral port).
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^listening on //p' "$WORK/serve.out" | head -n 1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "serve smoke FAILED: server exited early" >&2
        cat "$WORK/serve.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ADDR" ]; then
    echo "serve smoke FAILED: server never announced its address" >&2
    exit 1
fi
echo "== serve smoke: server is at $ADDR"

"$BIN" query --addr "$ADDR" "$WORK/ledger.csv" > "$WORK/query.out"
if ! grep -q "2019/03/04" "$WORK/query.out"; then
    echo "serve smoke FAILED: known-dirty value not flagged:" >&2
    cat "$WORK/query.out" >&2
    exit 1
fi

# A cell holding a quote, a backslash, a tab and a non-ASCII character,
# as header and as values: the request and response must escape and
# decode it, and the header must come back verbatim.
HOSTILE=$(printf 'say "hi" \\ tab\t\303\251')
printf '"say ""hi"" \\ tab\t\303\251",n\n"say ""hi"" \\ tab\t\303\251",1\nplain \303\251,2\n' \
    > "$WORK/hostile.csv"
"$BIN" query --addr "$ADDR" "$WORK/hostile.csv" > "$WORK/hostile.out"
if ! grep -qF "[$HOSTILE]" "$WORK/hostile.out"; then
    echo "serve smoke FAILED: escaped header did not round-trip:" >&2
    cat "$WORK/hostile.out" >&2
    exit 1
fi

# An ensemble query keeps the dirty value under the default union merge.
"$BIN" query --addr "$ADDR" "$WORK/ledger.csv" --detectors autodetect,fregex \
    > "$WORK/ensemble.out"
if ! grep -q "2019/03/04" "$WORK/ensemble.out" || ! grep -q "merge union" "$WORK/ensemble.out"; then
    echo "serve smoke FAILED: union ensemble lost the dirty value or its merge line:" >&2
    cat "$WORK/ensemble.out" >&2
    exit 1
fi

# A merge policy the server does not know is a 400 naming the valid ones.
if "$BIN" query --addr "$ADDR" "$WORK/ledger.csv" --detectors autodetect,fregex \
    --merge calibrated > /dev/null 2> "$WORK/calibrated.err"; then
    echo "serve smoke FAILED: --merge calibrated was accepted" >&2
    exit 1
fi
if ! grep -q "vote:k" "$WORK/calibrated.err"; then
    echo "serve smoke FAILED: unknown merge policy error does not name vote:k:" >&2
    cat "$WORK/calibrated.err" >&2
    exit 1
fi

# The three successful scans are counted in /v1/stats (the refused one
# is a client error), nothing failed on the server, each
# decode/scan/encode phase took measurable time, and the pooled caches
# hold the scanned values within adt_core::detector::VALUE_BYTES_CAPACITY
# (16 MiB) per cache, one cache per worker.
if ! python3 - "$ADDR" "$WORKERS" <<'EOF'
import json, sys, urllib.request
VALUE_BYTES_CAPACITY = 16 * 1024 * 1024
# Loopback only: ignore any proxy the environment names.
opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
with opener.open("http://%s/v1/stats" % sys.argv[1], timeout=10) as r:
    stats = json.load(r)
phases = stats.get("scan_phases", {})
if (stats.get("scans_ok") != 3 or stats.get("server_errors") != 0
        or sorted(phases) != ["decode_us", "encode_us", "scan_us"]
        or not all(v > 0 for v in phases.values())):
    sys.exit("serve smoke FAILED: /v1/stats scans_ok %r, server_errors %r, "
             "scan_phases %r" % (stats.get("scans_ok"),
                                 stats.get("server_errors"), phases))
values, cache_bytes = stats.get("cache_values"), stats.get("cache_bytes")
if (not isinstance(values, (int, float)) or values <= 0
        or not isinstance(cache_bytes, (int, float))
        or not 0 < cache_bytes <= VALUE_BYTES_CAPACITY * int(sys.argv[2])):
    sys.exit("serve smoke FAILED: /v1/stats cache_values %r, cache_bytes %r"
             % (values, cache_bytes))
print("== serve smoke: scans_ok 3, server_errors 0, scan_phases %s, "
      "cache_values %d, cache_bytes %d" %
      (", ".join("%s %.0f" % kv for kv in sorted(phases.items())),
       values, cache_bytes))
EOF
then
    cat "$WORK/serve.err" >&2
    exit 1
fi

echo "== serve smoke: stopping server"
"$BIN" stop --addr "$ADDR"

# A clean shutdown returns promptly; the watchdog turns a hang into a
# failed (killed → non-zero) wait instead of a stuck CI job.
( sleep 30; kill "$SERVER_PID" 2>/dev/null ) &
WATCHDOG=$!
if ! wait "$SERVER_PID"; then
    echo "serve smoke FAILED: server did not exit cleanly after stop" >&2
    cat "$WORK/serve.err" >&2
    exit 1
fi
SERVER_PID=""
kill "$WATCHDOG" 2>/dev/null || true
echo "serve smoke OK"
