#!/usr/bin/env bash
# Continuous-benchmark regression gate: compare a fresh bench-report
# snapshot against the committed baseline.
#
#   usage: bench_gate.sh BASELINE NEW [THRESHOLD]
#
# THRESHOLD is a relative slowdown fraction (default 0.25 = +25%), also
# settable via BENCH_GATE_THRESHOLD. Exit status:
#   0  every shared bench is within threshold (or regressions were
#      downgraded because BENCH_GATE_WARN_ONLY=1 — CI sets this when the
#      baseline came from different hardware)
#   1  at least one bench regressed beyond threshold
#   2  a snapshot is unreadable or has an incompatible schema (always
#      fatal, even with BENCH_GATE_WARN_ONLY=1)
#
# On a regression (exit 1), the gate attributes the slowdown before
# failing: it re-runs the canonical sweep with tracing enabled and
# prints the top trace-diff culprits against the committed TRACE_seed
# baseline. Set BENCH_GATE_NO_ATTRIBUTION=1 to skip the traced re-run.
set -euo pipefail
cd "$(dirname "$0")/.."

trace_baseline="TRACE_seed.jsonl"

# Best-effort regression attribution: never changes the gate's verdict.
attribute_regression() {
  if [ "${BENCH_GATE_NO_ATTRIBUTION:-0}" = "1" ]; then
    return 0
  fi
  if [ ! -f "$trace_baseline" ]; then
    echo "bench_gate: no $trace_baseline baseline; skipping attribution" >&2
    return 0
  fi
  local xmodel="target/release/xmodel"
  if [ ! -x "$xmodel" ]; then
    cargo build --release -p xmodel-cli --bin xmodel || return 0
  fi
  local fresh_trace
  fresh_trace="$(mktemp "${TMPDIR:-/tmp}/bench_gate_trace.XXXXXX")"
  echo "bench_gate: capturing traced re-run for attribution..." >&2
  if "$xmodel" sweep --gpu fermi --z 16 --l1 16 --n-max 48 --points 128 \
      --trace "$fresh_trace" >/dev/null 2>&1; then
    echo "bench_gate: top trace-diff culprits vs $trace_baseline:" >&2
    # trace-diff exits 1 when it finds differences; that is the point
    # here, not a failure of the gate script itself.
    "$xmodel" trace-diff "$trace_baseline" "$fresh_trace" \
      --top "${BENCH_GATE_ATTRIBUTION_TOP:-10}" >&2 || true
  else
    echo "bench_gate: traced re-run failed; no attribution available" >&2
  fi
  rm -f "$fresh_trace"
}

baseline="${1:?usage: bench_gate.sh BASELINE NEW [THRESHOLD]}"
fresh="${2:?usage: bench_gate.sh BASELINE NEW [THRESHOLD]}"
threshold="${3:-${BENCH_GATE_THRESHOLD:-0.25}}"

bin="target/release/bench-report"
if [ ! -x "$bin" ]; then
  cargo build --release -p xmodel-bench --bin bench-report
fi

set +e
"$bin" --compare "$baseline" "$fresh" --threshold "$threshold"
status=$?
set -e

# Daemon load numbers ride along in serve-load snapshots; surface them
# next to the verdict when present. The serve/request_p* bench entries
# are what the threshold above actually gates — these lines are the
# human-facing req/s + latency summary.
for key in serve_rps serve_p50_us serve_p95_us serve_p99_us; do
  val="$(sed -n "s/.*\"$key\":\([^,}]*\).*/\1/p" "$fresh" | head -n 1)"
  if [ -n "$val" ]; then
    echo "bench_gate: $key = $val"
  fi
done

if [ "$status" -eq 1 ]; then
  attribute_regression
fi
if [ "$status" -eq 1 ] && [ "${BENCH_GATE_WARN_ONLY:-0}" = "1" ]; then
  echo "bench_gate: regression detected, but BENCH_GATE_WARN_ONLY=1 (baseline hardware differs?) — not failing" >&2
  exit 0
fi
exit "$status"
