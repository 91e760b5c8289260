#!/bin/sh
# Compare a fresh benchmark run against a committed baseline JSON and fail
# on regression.
#
# Usage: scripts/bench_compare.sh baseline.json [threshold-pct]
#   default threshold: 10 (% ns/op slowdown allowed)
#
# The baseline records its own bench pattern and benchtime (see
# scripts/bench.sh); this script re-runs the identical suite into a temp
# file and diffs ns/op per benchmark. A benchmark present in the baseline
# but missing from the run fails (renames must update the baseline); new
# benchmarks only warn.
#
# Two gates per benchmark:
#   - ns/op: soft, > threshold-pct slower fails (wall clock is noisy on a
#     shared box; min-of-N keeps it honest).
#   - allocs/op: hard. Allocation counts are deterministic, so any growth
#     beyond 1% + 2 allocs over the committed baseline fails — the
#     regression gate behind the zero-allocation steady-state contract.
#     Baselines without the field (pre-allocs era) skip this gate.
set -eu
cd "$(dirname "$0")/.."
BASE="${1:?usage: scripts/bench_compare.sh baseline.json [threshold-pct]}"
THRESHOLD="${2:-10}"

[ -f "$BASE" ] || { echo "bench_compare: no baseline $BASE" >&2; exit 2; }

field() { sed -n "s/.*\"$1\": \"\(.*\)\",\{0,1\}\$/\1/p" "$BASE" | head -1; }
PATTERN="$(field pattern)"
BENCHTIME="$(field benchtime)"
[ -n "$PATTERN" ] || { echo "bench_compare: baseline $BASE has no pattern field (regenerate with scripts/bench.sh)" >&2; exit 2; }

TMP="$(mktemp -t bench_compare.XXXXXX.json)"
trap 'rm -f "$TMP"' EXIT
# The comparison run takes min-of-5 (vs the baseline's min-of-3) so that
# scheduler noise on a loaded machine biases toward false passes on the
# margin rather than false failures; a real >threshold regression shows up
# in every repetition.
BENCH_COUNT="${BENCH_COUNT:-5}" ./scripts/bench.sh "$BENCHTIME" "$PATTERN" "$TMP" >/dev/null

awk -v threshold="$THRESHOLD" -v basefile="$BASE" '
	# Extract name + ns_per_op (+ allocs_per_op when present) from the
	# one-object-per-line results arrays.
	function parse(line) {
		if (match(line, /"name": "[^"]*"/) == 0) return 0
		name = substr(line, RSTART + 9, RLENGTH - 10)
		if (match(line, /"ns_per_op": [0-9.eE+-]+/) == 0) return 0
		ns = substr(line, RSTART + 13, RLENGTH - 13) + 0
		hasAllocs = 0
		allocs = 0
		if (match(line, /"allocs_per_op": [0-9.eE+-]+/)) {
			allocs = substr(line, RSTART + 17, RLENGTH - 17) + 0
			hasAllocs = 1
		}
		return 1
	}
	FNR == NR {
		if (parse($0)) {
			base[name] = ns
			if (hasAllocs) { baseAllocs[name] = allocs; baseHasAllocs[name] = 1 }
		}
		next
	}
	{
		if (parse($0)) {
			cur[name] = ns
			if (hasAllocs) { curAllocs[name] = allocs; curHasAllocs[name] = 1 }
		}
	}
	END {
		status = 0
		for (name in base) {
			if (!(name in cur)) {
				printf "FAIL %-55s missing from current run (update %s?)\n", name, basefile
				status = 1
				continue
			}
			delta = (cur[name] - base[name]) / base[name] * 100
			verdict = "ok  "
			if (delta > threshold) { verdict = "FAIL"; status = 1 }
			printf "%s %-55s %12.0f -> %12.0f ns/op  (%+6.1f%%)\n", verdict, name, base[name], cur[name], delta
			if (baseHasAllocs[name] && !curHasAllocs[name]) {
				# The hard gate must not silently vanish: a baseline with
				# the field and a run without it means the alloc-reporting
				# path rotted (ReportAllocs dropped, emitter broken).
				printf "FAIL %-55s allocs/op missing from current run (alloc reporting rotted?)\n", name
				status = 1
			} else if (baseHasAllocs[name] && curHasAllocs[name]) {
				limit = baseAllocs[name] * 1.01 + 2
				averdict = "ok  "
				if (curAllocs[name] > limit) { averdict = "FAIL"; status = 1 }
				printf "%s %-55s %12.0f -> %12.0f allocs/op (hard gate)\n", averdict, name, baseAllocs[name], curAllocs[name]
			}
		}
		for (name in cur) if (!(name in base)) printf "note %-55s new benchmark, no baseline\n", name
		if (status) printf "bench_compare: regression beyond %s%% ns/op or allocs/op growth vs %s\n", threshold, basefile
		exit status
	}' "$BASE" "$TMP"
