#!/usr/bin/env bash
# run_analysis.sh — one-shot driver for the repo's static-analysis pass
# (DESIGN.md §13). Builds the standalone checkers if needed, then runs:
#
#   1. conga-lint      determinism lint over src/ tools/ bench/ tests/
#                      examples/ (wall-clock, ambient RNG, raw engines,
#                      unordered iteration, pointer-keyed maps, telemetry
#                      enum append-only contract)
#   2. layer_check     include-graph layering vs tools/analyze/layers.conf
#   3. fixture self-tests for both engines (each must still CATCH its
#                      seeded violations — a checker that stops firing is a
#                      silent hole)
#   4. thread-safety fixtures via clang (skipped loudly without clang++)
#
# JSON findings land in $OUT_DIR (default: analysis-out/) for CI artifact
# upload. Exit: non-zero if any engine reports a finding or a self-test
# fails; missing-toolchain steps skip loudly, they never fail.
#
# Usage: tools/analyze/run_analysis.sh [--out DIR] [--skip-thread-safety]
set -u

cd "$(dirname "$0")/../.."
OUT_DIR=analysis-out
SKIP_TS=""

while [ $# -gt 0 ]; do
  case "$1" in
    --out) OUT_DIR="$2"; shift 2 ;;
    --skip-thread-safety) SKIP_TS=1; shift ;;
    -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
    *) echo "run_analysis.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$OUT_DIR"
CXX="${CXX:-g++}"
STATUS=0

build_tool() {
  local name="$1"
  if [ -x "build/tools/analyze/$name" ] &&
     [ "build/tools/analyze/$name" -nt "tools/analyze/$name.cpp" ] &&
     [ "build/tools/analyze/$name" -nt src/json/json.cpp ]; then
    echo "build/tools/analyze/$name"
    return
  fi
  mkdir -p "$OUT_DIR/bin"
  if [ ! -x "$OUT_DIR/bin/$name" ] ||
     [ "tools/analyze/$name.cpp" -nt "$OUT_DIR/bin/$name" ] ||
     [ src/json/json.cpp -nt "$OUT_DIR/bin/$name" ]; then
    echo "run_analysis.sh: building $name" >&2
    "$CXX" -std=c++20 -O2 -Isrc -o "$OUT_DIR/bin/$name" \
           "tools/analyze/$name.cpp" src/json/json.cpp >&2 || return 1
  fi
  echo "$OUT_DIR/bin/$name"
}

LINT="$(build_tool conga_lint)" || { echo "FATAL: cannot build conga_lint" >&2; exit 2; }
LAYER="$(build_tool layer_check)" || { echo "FATAL: cannot build layer_check" >&2; exit 2; }

echo "=== conga-lint (tree) ==="
"$LINT" --root . --json "$OUT_DIR/lint.json" || STATUS=1

echo "=== layer_check (tree) ==="
"$LAYER" --root . --json "$OUT_DIR/layers.json" || STATUS=1

echo "=== conga-lint (fixture self-test) ==="
"$LINT" --self-test tools/analyze/fixtures/lint || STATUS=1

echo "=== layer_check (fixture self-test) ==="
"$LAYER" --root tools/analyze/fixtures/layers \
         --config tools/analyze/fixtures/layers/layers.conf \
         --expect tools/analyze/fixtures/layers/expected.txt || STATUS=1

if [ -z "$SKIP_TS" ]; then
  echo "=== thread-safety fixtures (clang) ==="
  tools/analyze/check_thread_safety.sh
  ts=$?
  if [ "$ts" -eq 77 ]; then
    echo "run_analysis.sh: thread-safety step skipped (no clang++)"
  elif [ "$ts" -ne 0 ]; then
    STATUS=1
  fi
fi

echo
if [ "$STATUS" -eq 0 ]; then
  echo "run_analysis.sh: ALL CLEAN (reports in $OUT_DIR/)"
else
  echo "run_analysis.sh: FINDINGS (see above; reports in $OUT_DIR/)" >&2
fi
exit $STATUS
