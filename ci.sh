#!/bin/sh
# Repository CI gate: formatting, lints, a path-only dependency check,
# repo-invariant analysis, tests and end-to-end smokes.
#
#   ./ci.sh                   # the gate
#   ADT_SANITIZERS=1 ./ci.sh  # additionally run scripts/sanitizers.sh
#                             # (ASan/TSan; needs a nightly toolchain)
set -eu
cd "$(dirname "$0")"

# Figure smoke: a scaled-down `exp_fig4` writes its figure JSON and
# `exp_report` reads it back into the Markdown summary. $1 is the
# directory holding the two release binaries.
figure_smoke() {
    FIG_DIR="$(mktemp -d)"
    ADT_SCALE=0.05 ADT_DATA_DIR="$FIG_DIR" "$1/exp_fig4" >/dev/null
    ADT_DATA_DIR="$FIG_DIR" "$1/exp_report" >"$FIG_DIR/summary.md"
    if ! grep -q '^### fig4a_wiki$' "$FIG_DIR/summary.md"; then
        echo "figure smoke: fig4a_wiki missing from the exp_report summary" >&2
        exit 1
    fi
    echo "figure smoke ok: exp_fig4 -> exp_report renders fig4a_wiki"
    rm -rf "$FIG_DIR"
}

# Matrix smoke: the quick detector x error-class report must be valid
# JSON (no NaN or Infinity literals) whose every cell precision is a
# number or null.
matrix_smoke() {
    MATRIX_DIR="$(mktemp -d)"
    MATRIX_OUT="$MATRIX_DIR/BENCH_matrix.json" scripts/matrix_report.sh quick
    python3 - "$MATRIX_DIR/BENCH_matrix.json" <<'EOF'
import json
import sys


def reject(name):
    raise ValueError(f"non-JSON literal {name}")


with open(sys.argv[1]) as f:
    data = json.load(f, parse_constant=reject)
cells = data["cells"]
assert cells, "matrix report has no cells"
for cell in cells:
    p = cell["precision"]
    ok = p is None or (isinstance(p, (int, float)) and not isinstance(p, bool))
    assert ok, f"precision is not a number or null: {cell}"
print(f"matrix smoke ok: {len(cells)} cells, valid JSON")
EOF
    rm -rf "$MATRIX_DIR"
}

# The benchmark package (perfbench/) sits outside the workspace and
# resolves its `rand` to devstubs/rand, a re-export of adt-rng; building
# and testing it here keeps a workspace API change from breaking it
# silently.
perfbench_tests() {
    CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
        --manifest-path perfbench/Cargo.toml
}

# Every package in the workspace's resolve is a path crate. A registry
# dependency would build wherever crates.io is reachable and nowhere
# else, so one that creeps back fails here by name.
path_only_dependencies() {
    cargo metadata --format-version 1 --offline | python3 -c '
import json
import sys

packages = json.load(sys.stdin)["packages"]
external = sorted("%s %s (%s)" % (p["name"], p["version"], p["source"])
                  for p in packages if p["source"] is not None)
if external:
    sys.exit("packages from outside the repository: " + ", ".join(external))
print(f"path-only dependencies ok: {len(packages)} packages, all path crates")
'
}

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== path-only dependencies"
path_only_dependencies
echo "== clippy"
cargo clippy --workspace --all-targets -- -D warnings
echo "== adt-analyze --deny"
cargo run -q -p adt-analyze -- --deny
echo "== adt-analyze baseline ratchet"
scripts/analyze_baseline.sh
echo "== tests"
cargo test --workspace -q
echo "== perfbench build + tests"
perfbench_tests
echo "== serve smoke test"
cargo build --bin autodetect
scripts/serve_smoke.sh target/debug/autodetect
echo "== learn loop smoke test"
scripts/learn_smoke.sh target/debug/autodetect
echo "== matrix report smoke: detector x error-class"
matrix_smoke
echo "== figure smoke: exp_fig4 -> exp_report"
cargo build --release -q -p adt-bench --bin exp_fig4 --bin exp_report
figure_smoke target/release

if [ "${ADT_SANITIZERS:-0}" = "1" ]; then
    echo "== sanitizers (nightly)"
    scripts/sanitizers.sh
fi

echo "CI OK"
