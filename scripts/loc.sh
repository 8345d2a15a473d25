#!/usr/bin/env bash
# Code lines per Go package: non-test files, without blank lines and without
# comment-only lines (// lines and /* ... */ blocks). This is the measure
# ROADMAP aim 2 ("the least code") is judged by.
#
#   scripts/loc.sh                        every package under the repo root
#   scripts/loc.sh internal/core ...      the named directories, plus their sum
#   scripts/loc.sh -f internal/core/elision.go    single files
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count FILE...: code lines over the files
	awk '
		inblock { if (sub(/^.*\*\//, "")) inblock = 0; else next }
		{ sub(/^[ \t]+/, "") }
		/^\/\*/ { if (!sub(/^\/\*.*\*\//, "")) { inblock = 1; next } }
		/^$/ || /^\/\// { next }
		{ n++ }
		END { print n + 0 }
	' "$@" /dev/null
}

if [[ "${1:-}" == "-f" ]]; then
	shift
	for f in "$@"; do printf '%6d  %s\n' "$(count "$f")" "$f"; done
	exit 0
fi

dirs=("$@")
if ((${#dirs[@]} == 0)); then
	mapfile -t dirs < <(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -printf '%h\n' | sort -u | sed 's|^\./||')
fi
total=0
for d in "${dirs[@]}"; do
	d=${d%/}
	mapfile -t files < <(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	n=$(count "${files[@]}")
	total=$((total + n))
	printf '%6d  %s\n' "$n" "$d"
done
printf '%6d  total\n' "$total"
