#!/usr/bin/env bash
# The same-seed behavioural oracle in one command.
#
#   tools/oracle.sh OUT_DIR
#
# Builds this checkout and writes the canonical artifact set into
# OUT_DIR: the chaos runs (plain, --restart, --corrupt-log) with their
# stdout, the broadcast runs under -p sync, -p async and
# -p async --byzantine 2, a churn run, `analyze --json` and
# `export-trace` of the traced artifacts, and the canonical quick
# `bench scale`.  Every command runs in a scratch directory with
# relative --out-dir names, so the embedded command lines do not depend
# on OUT_DIR, and `build_info.git` is blanked.  A refactor proves
# itself with
#
#   tools/oracle.sh /tmp/before   # on the parent commit
#   tools/oracle.sh /tmp/after    # on the change
#   diff -r /tmp/before /tmp/after
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

(cd "$root" && dune build bin/atum_cli.exe bench/main.exe)
cli="$root/_build/default/bin/atum_cli.exe"
bench="$root/_build/default/bench/main.exe"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

for mode in plain restart corrupt-log; do
  flag=""
  [ "$mode" = plain ] || flag="--$mode"
  mkdir -p "chaos_$mode"
  "$cli" chaos -n 60 --seed 7 $flag --json --out-dir "chaos_$mode" > "chaos_$mode/stdout.txt"
done
"$cli" analyze chaos_plain/ATUM_resilience.json --json --out-dir chaos_plain > /dev/null
"$cli" export-trace chaos_plain/ATUM_resilience.json --out-dir chaos_plain > /dev/null

for cfg in "sync" "async" "async --byzantine 2"; do
  dir="broadcast_$(echo "$cfg" | tr -d ' -')"
  # $cfg is split on purpose: "async --byzantine 2" is three arguments.
  # shellcheck disable=SC2086
  "$cli" broadcast -n 24 -m 6 --seed 5 -p $cfg --json --out-dir "$dir" > /dev/null
  "$cli" analyze "$dir/ATUM_broadcast.json" --json --out-dir "$dir" > /dev/null
  "$cli" export-trace "$dir/ATUM_broadcast.json" --out-dir "$dir" > /dev/null
done

"$cli" churn --json --out-dir churn > /dev/null

ATUM_BENCH_SCALE=quick ATUM_BENCH_JSON_CANON=1 "$bench" scale --json --out-dir scale > /dev/null

# Blank the one field that names the checkout rather than the run.
find . -type f | sort | while read -r f; do
  mkdir -p "$out/$(dirname "$f")"
  sed -E 's/"git": *"[^"]*"/"git": ""/' "$f" > "$out/$f"
done
