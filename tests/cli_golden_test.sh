#!/usr/bin/env bash
# Replays tests/data/golden_cli/manifest.txt against a dosmeter binary and
# compares each case's transcript with the checked-in <slug>.txt next to the
# manifest, byte for byte. A transcript pins the exit code, stdout, stderr
# and the sha256 of every file the case wrote (event dumps, archives, CSVs).
# Metrics files (`metrics.*`) carry timings, so only their presence is
# pinned.
#
#   cli_golden_test.sh DOSMETER GOLDEN_DIR             compare
#   cli_golden_test.sh --record DOSMETER GOLDEN_DIR    rewrite transcripts
#
# Manifest lines are `slug<TAB>arguments`; arguments split on spaces. Every
# case runs in its own directory work/<slug>, so a later case can read an
# earlier case's output as ../<slug>/<file>. Each case is killed after 60 s,
# so a command that would serve forever fails instead of hanging the suite.
set -u

record=0
if [ "${1:-}" = "--record" ]; then
  record=1
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [--record] DOSMETER GOLDEN_DIR" >&2
  exit 2
fi
dosmeter=$(realpath "$1")
golden=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

transcript() {
  local dir=$1 code=$2
  printf 'exit: %s\n--- stdout\n' "$code"
  cat "$work/$slug.stdout"
  printf '\n--- stderr\n'
  cat "$work/$slug.stderr"
  printf '\n--- files\n'
  (cd "$dir" && find . -type f -printf '%P\n' | LC_ALL=C sort |
    while IFS= read -r file; do
      case "$(basename "$file")" in
        metrics.*) printf 'present  %s\n' "$file" ;;
        *) sha256sum "$file" ;;
      esac
    done)
}

failed=0
cases=0
while IFS=$'\t' read -r slug args; do
  case "$slug" in '' | '#'*) continue ;; esac
  cases=$((cases + 1))
  read -ra argv <<<"$args"
  dir="$work/$slug"
  mkdir -p "$dir"
  (cd "$dir" && timeout 60 "$dosmeter" "${argv[@]}" \
    >"$work/$slug.stdout" 2>"$work/$slug.stderr" </dev/null)
  code=$?
  transcript "$dir" "$code" >"$work/$slug.txt"
  if [ "$record" = 1 ]; then
    cp "$work/$slug.txt" "$golden/$slug.txt"
  elif ! cmp -s "$work/$slug.txt" "$golden/$slug.txt"; then
    echo "FAIL $slug: dosmeter $args"
    diff -u "$golden/$slug.txt" "$work/$slug.txt" | head -40
    failed=$((failed + 1))
  fi
done <"$golden/manifest.txt"

if [ "$record" = 1 ]; then
  echo "recorded $cases transcripts into $golden"
  exit 0
fi
echo "$((cases - failed))/$cases CLI golden cases match"
[ "$failed" = 0 ]
