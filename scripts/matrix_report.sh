#!/bin/sh
# Detector × error-class precision matrix: trains a small coarse-space
# model, runs every detector over one scenario per injected error class,
# and writes BENCH_matrix.json (override the path with MATRIX_OUT) with
# per-cell pooled precision@k and each detector's precision over all
# classes (its "prior", reported only: no merge policy reads it).
#
#   scripts/matrix_report.sh             # full: release build, 12 detectors
#   scripts/matrix_report.sh quick       # smoke: debug build, 4 detectors
#
# Quick mode exists so CI can exercise the matrix wiring cheaply; its
# precision numbers are noisy and its priors are not meant to be read
# as measurements.
set -eu
cd "$(dirname "$0")/.."

MODE="${1:-full}"
OUT="${MATRIX_OUT:-$(pwd)/BENCH_matrix.json}"
FLAGS=""
PROFILE="--release"
if [ "$MODE" = "quick" ]; then
    FLAGS="--quick"
    PROFILE=""
fi

cargo run $PROFILE -q -p adt-bench --bin matrix_report -- $FLAGS --out "$OUT"
echo "matrix written to $OUT"
