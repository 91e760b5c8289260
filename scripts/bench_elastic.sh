#!/bin/sh
# Regenerate the elastic-checkpointing baseline (BENCH_ELASTIC.json): the
# asynchronous boundary snapshot as the training loop sees it (capture +
# submit, with the double buffer's exposed stall reported as stall-ns/op)
# and the ZELC encode/decode round trip of a zero.Snapshot. allocs/op on
# the pure-CPU path is the hard gate.
set -eu
exec "$(dirname "$0")/bench.sh" "${1:-20x}" '^BenchmarkElastic$' BENCH_ELASTIC.json
