#!/usr/bin/env bash
# rerun-identical.sh EXPERIMENT [PARALLEL_B]
#
# Runs one quick experiment twice and requires the table, the -report JSON
# and the -csv to be byte-identical. The second run uses PARALLEL_B workers
# when given (0 or absent: the default, like the first run), so the check
# also covers the worker count.
set -euo pipefail
cd "$(dirname "$0")/.."

exp=${1:?usage: rerun-identical.sh EXPERIMENT [PARALLEL_B]}
par_b=${2:-0}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/htmgil-bench" ./cmd/htmgil-bench
"$dir/htmgil-bench" -experiment "$exp" -quick -report "$dir/a.json" -csv "$dir/a.csv" >"$dir/a.txt"
"$dir/htmgil-bench" -experiment "$exp" -quick -parallel "$par_b" -report "$dir/b.json" -csv "$dir/b.csv" >"$dir/b.txt"
cmp "$dir/a.txt" "$dir/b.txt"
cmp "$dir/a.json" "$dir/b.json"
cmp "$dir/a.csv" "$dir/b.csv"
echo "$exp: two runs byte-identical (second at -parallel $par_b)"
