#!/bin/sh
# Regenerate a benchmark baseline JSON.
#
# Usage: scripts/bench.sh benchtime pattern out
#   (the per-suite wrappers scripts/bench_*.sh supply all three)
#
# BENCH_COUNT (default 3) repeats the suite and keeps the per-benchmark
# minimum ns/op — min-of-N is the standard defense against scheduler noise
# on shared machines. The emitted JSON records the bench pattern and
# benchtime so scripts/bench_compare.sh can re-run the identical suite and
# diff ns/op.
set -eu
cd "$(dirname "$0")/.."
[ $# -eq 3 ] || { echo "usage: scripts/bench.sh benchtime pattern out" >&2; exit 2; }
BENCHTIME="$1"
PATTERN="$2"
OUT="$3"
COUNT="${BENCH_COUNT:-3}"
SUITE="$(basename "$OUT" .json | tr 'A-Z_' 'a-z-')"

go test -run=NONE -bench="$PATTERN" -benchtime="$BENCHTIME" -count="$COUNT" . |
	awk -v benchtime="$BENCHTIME" -v pattern="$PATTERN" -v suite="$SUITE" '
	/^goos:/   { goos = $2 }
	/^goarch:/ { goarch = $2 }
	/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
	/^Benchmark/ {
		name = $1; iters = $2; ns = $3 + 0
		if (!(name in best) || ns < best[name]) {
			best[name] = ns
			bestIters[name] = iters
			extra = ""
			for (i = 5; i < NF; i += 2) {
				unit = $(i + 1)
				gsub(/\//, "_per_", unit)
				gsub(/[^A-Za-z0-9_]/, "_", unit)
				extra = extra sprintf(", \"%s\": %s", unit, $i)
			}
			bestExtra[name] = extra
		}
		if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
	}
	END {
		print "{"
		printf "  \"suite\": \"%s\",\n", suite
		printf "  \"benchtime\": \"%s\",\n", benchtime
		gsub(/\\/, "\\\\", pattern)
		printf "  \"pattern\": \"%s\",\n", pattern
		printf "  \"results\": ["
		for (i = 1; i <= n; i++) {
			name = order[i]
			if (i > 1) printf ","
			printf "\n    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s%s}",
				name, bestIters[name], best[name], bestExtra[name]
		}
		printf "\n  ],\n"
		printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"\n", goos, goarch, cpu
		print "}"
	}' >"$OUT"
echo "wrote $OUT"
