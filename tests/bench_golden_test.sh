#!/usr/bin/env bash
# Replays tests/data/golden_bench/manifest.txt against a build tree and
# compares each paper-reproduction binary's exit code and stdout with the
# checked-in <slug>.txt next to the manifest, byte for byte. These are the
# printed tables and figures (Table 1-9, Figures 1-11, the joint-attack,
# mail and Web-port analyses, the §6 bounding check, the detector
# validation against ground truth, the quickstart, hoster_under_attack
# and dps_migration_study examples) and the two
# streaming demos (streaming_monitor drives fusion, query_dashboard the
# snapshot publisher), so any change to the counting or day-closing rules
# behind them shows up as a diff. Stderr carries progress chatter only and
# is not pinned.
#
#   bench_golden_test.sh BUILD_DIR GOLDEN_DIR             compare
#   bench_golden_test.sh --record BUILD_DIR GOLDEN_DIR    rewrite transcripts
#
# Manifest lines are `slug<TAB>binary`, the binary's path relative to the
# build tree. Each case runs in its own scratch directory and is killed
# after 900 s (sanitizer and Debug builds build each 731-day world many
# times slower than a release build).
set -u

record=0
if [ "${1:-}" = "--record" ]; then
  record=1
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [--record] BUILD_DIR GOLDEN_DIR" >&2
  exit 2
fi
build=$(realpath "$1")
golden=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

failed=0
cases=0
while IFS=$'\t' read -r slug binary; do
  case "$slug" in '' | '#'*) continue ;; esac
  cases=$((cases + 1))
  dir="$work/$slug"
  mkdir -p "$dir"
  (cd "$dir" && timeout 900 "$build/$binary" \
    >"$work/$slug.stdout" 2>"$work/$slug.stderr" </dev/null)
  code=$?
  { printf 'exit: %s\n--- stdout\n' "$code"; cat "$work/$slug.stdout"; } \
    >"$work/$slug.txt"
  if [ "$record" = 1 ]; then
    cp "$work/$slug.txt" "$golden/$slug.txt"
  elif ! cmp -s "$work/$slug.txt" "$golden/$slug.txt"; then
    echo "FAIL $slug: $binary"
    diff -u "$golden/$slug.txt" "$work/$slug.txt" | head -40
    tail -5 "$work/$slug.stderr"
    failed=$((failed + 1))
  fi
done <"$golden/manifest.txt"

if [ "$record" = 1 ]; then
  echo "recorded $cases transcripts into $golden"
  exit 0
fi
echo "$((cases - failed))/$cases bench golden cases match"
[ "$failed" = 0 ]
