#!/usr/bin/env bash
# benchmark-digests.sh
#
# Runs the repo benchmark's five workloads at seed 1 with no timed budget
# (`-seconds 0`: three iterations each, about 50 s in all) and requires each
# workload's digest — a hash of every virtual result of its points — to
# equal the one recorded in scripts/benchmark_digests.txt. A host-side
# change (the virtual clock untouched) must pass this as it stands; a change
# to the model updates the file, on purpose, in the same commit.
set -euo pipefail
cd "$(dirname "$0")/.."

want=scripts/benchmark_digests.txt
got=$(mktemp)
trap 'rm -f "$got"' EXIT

bash benchmark/run.sh -seconds 0 |
	sed -n 's/^workload \([a-z_]*\) .* digest \([0-9a-f]*\)$/\1 \2/p' >"$got"
if ! diff -u "$want" "$got"; then
	echo "benchmark digests differ from $want (- recorded, + this tree)" >&2
	exit 1
fi
echo "benchmark digests: all $(wc -l <"$want" | tr -d ' ') match $want"
