#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, the full test suite, and a
# smoke test of the tracing pipeline. Everything runs without network
# access — dependencies resolve to the vendored `compat/` crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== model crate boundary (no sockets in xmodel-core) ==="
# The daemon lives in crates/serve (xmodel-serve); the analytic-model
# crate binds no socket and runs no accept loop or worker pool.
if grep -rnE 'std::net|TcpListener|TcpStream' crates/core/src; then
  echo "crates/core/src names std::net, TcpListener or TcpStream: sockets belong in crates/serve" >&2
  exit 1
fi

echo "=== xlint (workspace static analysis) ==="
# --deny-stale: a baseline entry whose finding was fixed must be pruned
# (scripts/xlint_baseline.sh), so the allowlist only ever shrinks by
# review, never rots.
xlint_out="$(cargo run -q -p xlint -- --format json --deny-stale)"
echo "$xlint_out" | grep -q '"schema":"xmodel-xlint/2"' \
  || { echo "xlint report is not xmodel-xlint/2: $xlint_out" >&2; exit 1; }

echo "=== xlint dataflow smoke (fixture workspace must fail with witness chains) ==="
# The deliberately broken fixture tree has a wall-clock read two calls
# deep from its determinism root and a lock in result assembly; the v2
# pass must flag both (exit 1) and carry non-empty call-chain witnesses.
set +e
badws_out="$(cargo run -q -p xlint -- \
  --root crates/xlint/tests/fixtures/badws --baseline /dev/null --format json)"
badws_status=$?
set -e
test "$badws_status" -eq 1 \
  || { echo "xlint must exit 1 on the badws fixture (got $badws_status)" >&2; exit 1; }
echo "$badws_out" | grep -q '"lint":"nondeterminism-in-result-path"' \
  || { echo "badws: missing nondeterminism finding: $badws_out" >&2; exit 1; }
echo "$badws_out" | grep -q '"lint":"lock-in-result-path"' \
  || { echo "badws: missing lock finding: $badws_out" >&2; exit 1; }
echo "$badws_out" | grep -q '"lint":"metric-docs-sync"' \
  || { echo "badws: missing metric-docs-sync finding: $badws_out" >&2; exit 1; }
echo "$badws_out" | grep -q '"chain":\["demo::sweep","demo::stamp","demo::clock"\]' \
  || { echo "badws: witness chain missing or wrong: $badws_out" >&2; exit 1; }

echo "=== cargo clippy (warnings are errors) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo build --release ==="
cargo build --release

echo "=== cargo test ==="
cargo test -q

echo "=== benchmark harness build (perfbench/) ==="
# perfbench is a workspace of its own that calls the library by name, so
# the workspace build above does not see it; an API change that breaks
# it must fail here, not when the benchmark runs.
CARGO_TARGET_DIR=target/perfbench \
  cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "=== one perfbench pass each: §V records, sweep rows and served replies bit for bit ==="
# A validate or validate_l1 pass checks every op's record against
# perfbench/reference/*.jsonl (36 + 24 records, shortest round-trip
# floats); a sweep pass runs 72 `xmodel sweep` calls over the seeded
# design grid and compares 288 sampled rows with the dense solver
# (`XModel::solve_with`). Either way a mismatch counts as a failed op.
# The harness takes only a positive --seconds; any value shorter than
# one pass runs exactly one.
for workload in validate validate_l1 sweep; do
  result="$(target/perfbench/release/perfbench --workload "$workload" --seed 1 \
    --seconds 0.001 --trace 0 --xmodel target/release/xmodel | tail -n 1)"
  echo "$result" | grep -q '"failed": 0,' \
    || { echo "perfbench $workload: output differs from its reference: $result" >&2; exit 1; }
done
# A serve pass boots `xmodel serve` daemons and drives one for a second
# with a closed loop of clients: every reply must be a 2xx, every
# /solve and /sweep exact, every 4th request's /solve point or /sweep
# row bit-identical to the dense solver, and every daemon must drain
# clean after `POST /quitck`.
result="$(target/perfbench/release/perfbench --workload serve --seed 1 \
  --seconds 1 --trace 0 --xmodel target/release/xmodel | tail -n 1)"
echo "$result" | grep -q '"failed": 0,' \
  || { echo "perfbench serve: a reply was not an exact 2xx equal to the dense solver, or a daemon did not drain clean: $result" >&2; exit 1; }

echo "=== trace smoke test ==="
trace="$(mktemp -t xmodel-trace.XXXXXX.jsonl)"
folded="$(mktemp -t xmodel-folded.XXXXXX.txt)"
bench_ci="target/BENCH_ci.json"
sweep1="$(mktemp -t xmodel-sweep1.XXXXXX.json)"
sweepn="$(mktemp -t xmodel-sweepn.XXXXXX.json)"
trap 'rm -f "$trace" "$folded" "$sweep1" "$sweepn" "${diff_base:-}" "${diff_new:-}" "${occ_svg:-}" "${invalid:-}" "${serve_log:-}" "${wild_log:-}"' EXIT
./target/release/xmodel sim --workload gesummv --gpu fermi --l1 16 \
  --trace "$trace" > /dev/null
grep -q '"kind":"sim.snapshot"' "$trace"
grep -q '"kind":"sim.probe_header"' "$trace"
grep -q '"kind":"sim.probe"' "$trace"
grep -q '"kind":"run_manifest"' "$trace"
grep -q '"p95_us"' "$trace"
./target/release/xmodel trace-report "$trace" --profile > /dev/null
./target/release/xmodel profile "$trace" --folded "$folded" > /dev/null
test -s "$folded"

echo "=== simtrace frames match the committed seed ==="
# The simulator is deterministic: the snapshot and probe frames of the
# run above must equal SIMTRACE_seed.jsonl's byte for byte, once the
# wall-clock stamps are stripped.
frames() {
  grep -E '"kind":"sim\.(snapshot|probe_header|probe)"' "$1" | sed -E 's/"t_us":[0-9]+,//'
}
cmp <(frames "$trace") <(frames SIMTRACE_seed.jsonl) \
  || { echo "sim frames differ from SIMTRACE_seed.jsonl" >&2; exit 1; }

echo "=== trace-diff smoke (regression attribution) ==="
# Self-diff: identical traces ⇒ no significant differences, exit 0.
./target/release/xmodel trace-diff "$trace" "$trace" > /dev/null
# Injected regression: same tree, one span slowed 10× ⇒ that span is
# the top culprit and the exit code says "differences found" (1).
diff_base="$(mktemp -t xmodel-diffbase.XXXXXX.jsonl)"
diff_new="$(mktemp -t xmodel-diffnew.XXXXXX.jsonl)"
printf '%s\n' \
  '{"kind":"span","t_us":1,"name":"root","dur_us":30000}' \
  '{"kind":"span","t_us":1,"name":"hot","dur_us":2000,"parent":"root"}' \
  > "$diff_base"
printf '%s\n' \
  '{"kind":"span","t_us":1,"name":"root","dur_us":48000}' \
  '{"kind":"span","t_us":1,"name":"hot","dur_us":20000,"parent":"root"}' \
  > "$diff_new"
set +e
diff_out="$(./target/release/xmodel trace-diff "$diff_base" "$diff_new" 2>/dev/null)"
diff_status=$?
set -e
test "$diff_status" -eq 1 \
  || { echo "trace-diff must exit 1 on differences (got $diff_status)" >&2; exit 1; }
echo "$diff_out" | grep -E '^[!·]' | head -1 | grep -q 'hot' \
  || { echo "trace-diff failed to rank the slowed span first:" >&2; \
       echo "$diff_out" >&2; exit 1; }
rm -f "$diff_base" "$diff_new"

echo "=== sim-report smoke (simtrace digest + occupancy timeline) ==="
./target/release/xmodel sim-report "$trace" > /dev/null
./target/release/xmodel sim-report "$trace" --json | grep -q 'xmodel-simtrace/1'
occ_svg="$(mktemp -t xmodel-occ.XXXXXX.svg)"
./target/release/xmodel sim-report "$trace" --svg "$occ_svg" > /dev/null
test -s "$occ_svg"
rm -f "$occ_svg"

echo "=== residual gate smoke (model vs simulator) ==="
# Self-consistent: comparing the trace against the preset that produced
# it must stay within the default tolerance ⇒ exit 0.
./target/release/xmodel residuals "$trace" > /dev/null
# Mismatched preset: the maxwell prediction cannot explain a fermi
# trace ⇒ gated observables exceed tolerance ⇒ exit 1.
set +e
./target/release/xmodel residuals "$trace" --preset maxwell > /dev/null 2>&1
res_status=$?
set -e
test "$res_status" -eq 1 \
  || { echo "residuals must exit 1 on a mismatched preset (got $res_status)" >&2; exit 1; }
# Committed baseline: the simulator is deterministic, so the seed trace
# should reproduce bit-for-bit, but model/solver tuning legitimately
# moves residuals — keep this comparison advisory.
./target/release/xmodel residuals SIMTRACE_seed.jsonl > /dev/null \
  || echo "warning: committed SIMTRACE_seed.jsonl exceeds the default residual tolerance" >&2

echo "=== trace readers decode invalid UTF-8 lossily ==="
# A torn write can leave any byte behind. Every trace command reads the
# trace above with one invalid UTF-8 byte appended as it reads the
# original (exit 0): the byte is one malformed line, not a fatal error.
invalid="$(mktemp -t xmodel-invalid.XXXXXX.jsonl)"
cp "$trace" "$invalid"
printf '\377' >> "$invalid"
./target/release/xmodel trace-report "$invalid" --timeline > /dev/null
./target/release/xmodel profile "$invalid" > /dev/null
./target/release/xmodel sim-report "$invalid" > /dev/null
./target/release/xmodel residuals "$invalid" > /dev/null
./target/release/xmodel trace-diff "$invalid" "$trace" > /dev/null
rm -f "$invalid"

echo "=== fault-matrix chaos suite ==="
cargo test -q -p xmodel --test fault_matrix

echo "=== CLI exit-code contract smoke ==="
xm=./target/release/xmodel
# 0 — exact solve, no warning.
out="$($xm draw --m 6 --r 0.107 --l 520 --z 20 --e 1 --n 48 2>&1 >/dev/null)"
test -z "$out" || { echo "exact solve should not warn: $out" >&2; exit 1; }
# 0 + warning — degraded solve (exact rung disabled via fault spec).
out="$($xm draw --m 6 --r 0.107 --l 520 --z 20 --e 1 --n 48 \
  --fault-spec solver=no-bracket 2>&1 >/dev/null)"
echo "$out" | grep -q 'warning:.*grid-scan' \
  || { echo "degraded solve must warn with provenance: $out" >&2; exit 1; }
# 1 — typed model error.
if $xm draw --m 6 --r 0.107 --l 520 --z -20 --e 1 --n 48 >/dev/null 2>&1; then
  echo "invalid parameter must exit 1" >&2; exit 1
else
  test $? -eq 1 || { echo "invalid parameter exited $? (want 1)" >&2; exit 1; }
fi
# 2 — usage errors: unknown command and malformed fault spec.
for bad in "no-such-command" "draw --fault-spec gremlins=1"; do
  if $xm $bad >/dev/null 2>&1; then
    echo "usage error ($bad) must exit 2" >&2; exit 1
  else
    test $? -eq 2 || { echo "usage error ($bad) exited $? (want 2)" >&2; exit 1; }
  fi
done
# 0 + warning — the IR driver heals dropped completions through the
# memory side it shares with the parametric one: this run completes, and
# its warning line reports a nonzero recovered count.
out="$($xm sim --ir --workload nw --gpu kepler --l1 16 \
  --fault-spec seed=5,drop=0.02 2>&1 >/dev/null)" \
  || { echo "IR run with drop faults must exit 0: $out" >&2; exit 1; }
echo "$out" | grep -Eq 'warning:.*\([1-9][0-9]* recovered' \
  || { echo "IR drop faults must be recovered: $out" >&2; exit 1; }

echo "=== sweep determinism (--jobs must not change the bytes) ==="
$xm sweep --gpu fermi --z 16 --l1 16 --n-max 48 --points 128 --jobs 1 \
  --out "$sweep1" > /dev/null
$xm sweep --gpu fermi --z 16 --l1 16 --n-max 48 --points 128 --jobs 4 \
  --out "$sweepn" > /dev/null
cmp "$sweep1" "$sweepn" \
  || { echo "sweep output depends on --jobs" >&2; exit 1; }
XMODEL_JOBS=3 $xm sweep --gpu fermi --z 16 --l1 16 --n-max 48 --points 128 \
  --out "$sweepn" > /dev/null
cmp "$sweep1" "$sweepn" \
  || { echo "sweep output depends on XMODEL_JOBS" >&2; exit 1; }
# Jobs 1 -> N wall-clock scaling is hardware-dependent: a single-core
# runner cannot demonstrate it, and shared CI boxes make it noisy, so
# the probe is warn-only (EXPERIMENTS.md records the committed numbers).
if [ "$(nproc 2>/dev/null || echo 1)" -gt 1 ]; then
  start=$(date +%s%N)
  $xm sweep --gpu fermi --z 16 --l1 16 --n-max 64 --points 1024 --jobs 1 \
    --out "$sweep1" > /dev/null
  t1=$(( $(date +%s%N) - start ))
  start=$(date +%s%N)
  $xm sweep --gpu fermi --z 16 --l1 16 --n-max 64 --points 1024 --jobs 4 \
    --out "$sweepn" > /dev/null
  tn=$(( $(date +%s%N) - start ))
  if [ "$tn" -ge "$t1" ]; then
    echo "warning: sweep --jobs 4 (${tn} ns) not faster than --jobs 1 (${t1} ns)" >&2
  fi
else
  echo "single-core runner: skipping the jobs-scaling probe (determinism checked above)"
fi

echo "=== bench-report smoke + regression gate ==="
./target/release/bench-report --smoke --label ci --out "$bench_ci"
# Synthetic-regression self-check: the gate must fail on a known-bad
# pair (attribution skipped — the regression is synthetic, there is
# nothing to attribute).
if BENCH_GATE_WARN_ONLY=0 BENCH_GATE_NO_ATTRIBUTION=1 scripts/bench_gate.sh \
    crates/bench/tests/fixtures/bench_base.json \
    crates/bench/tests/fixtures/bench_regressed.json > /dev/null 2>&1; then
  echo "bench_gate.sh failed to flag the synthetic regression" >&2
  exit 1
fi
# Real comparison against the committed baseline. CI hardware differs
# from the machine that produced BENCH_seed.json, so regressions only
# warn here — but schema errors (exit 2) still fail the build.
BENCH_GATE_WARN_ONLY=1 scripts/bench_gate.sh BENCH_seed.json "$bench_ci"

echo "=== serve smoke (overload-safe daemon) ==="
serve_log="$(mktemp -t xmodel-serve.XXXXXX.log)"
bench_serve="target/BENCH_serve_ci.json"
# One deliberately stalled worker and a tiny queue so the burst below
# provably exercises admission control (429 shedding), not just the
# happy path.
./target/release/xmodel serve --addr 127.0.0.1:0 --workers 1 --queue 2 \
  --fault-spec 'serve-stall=20' > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$serve_log" && break
  sleep 0.1
done
serve_addr="$(sed -n 's#.*http://##p' "$serve_log" | head -n 1)"
test -n "$serve_addr" \
  || { echo "serve did not report a listen address" >&2; cat "$serve_log" >&2; exit 1; }
sl=./target/release/serve-load
# Mixed good/malformed/deadline-doomed load with deterministic client
# chaos (slow dribblers, torn bodies); quantiles land in a bench
# snapshot so the regression gate can read them.
"$sl" --addr "$serve_addr" --requests 120 --concurrency 8 --mix 4:1:1 \
  --seed 7 --fault-spec 'seed=7,serve-slow-client=0.05,serve-torn-body=0.05' \
  --label serve-ci --out "$bench_serve"
grep -q '"serve_rps":' "$bench_serve"
grep -q '"serve_p99_us":' "$bench_serve"
# The daemon exports its admission counters on /metrics.
serve_metrics="$("$sl" --addr "$serve_addr" --get /metrics)"
echo "$serve_metrics" | grep -q 'xmodel_serve_requests' \
  || { echo "serve /metrics missing xmodel_serve_requests" >&2; exit 1; }
echo "$serve_metrics" | grep -q 'xmodel_serve_shed' \
  || { echo "serve /metrics missing xmodel_serve_shed (burst did not shed?)" >&2; exit 1; }
echo "$serve_metrics" | grep -q 'xmodel_serve_queue_depth' \
  || { echo "serve /metrics missing xmodel_serve_queue_depth" >&2; exit 1; }
# A body nested far past the JSON parser's depth cap gets a typed 400
# (serve-load exits 1 on it), not a worker stack overflow: the clean
# drain below then shows the release daemon survived it.
deep_body="$(printf '%*s' 60000 '' | tr ' ' '[')"
deep_reply="$("$sl" --addr "$serve_addr" --post /solve --body "$deep_body" || true)"
echo "$deep_reply" | grep -q '"status":400' \
  || { echo "60,000-deep body did not get a 400: ${deep_reply:0:200}" >&2; exit 1; }
# Graceful drain: POST /quitck, then the process must exit 0 by itself.
"$sl" --addr "$serve_addr" --post /quitck | grep -q '"status":"draining"'
wait "$serve_pid" \
  || { echo "serve did not drain cleanly" >&2; cat "$serve_log" >&2; exit 1; }
# The serve snapshot passes through the regression gate (self-compare:
# exercises the schema + serve_* surfacing path, no hardware baseline).
BENCH_GATE_NO_ATTRIBUTION=1 scripts/bench_gate.sh "$bench_serve" "$bench_serve"
rm -f "$serve_log"
# A wildcard bind drains too: the accept thread blocks in `accept`, and
# the drain wakes it through loopback on the bound port.
wild_log="$(mktemp -t xmodel-serve-wild.XXXXXX.log)"
./target/release/xmodel serve --addr 0.0.0.0:0 > "$wild_log" 2>&1 &
wild_pid=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$wild_log" && break
  sleep 0.1
done
wild_port="$(sed -n 's#.*http://0\.0\.0\.0:##p' "$wild_log" | head -n 1)"
test -n "$wild_port" \
  || { echo "serve --addr 0.0.0.0:0 did not report its port" >&2; cat "$wild_log" >&2; exit 1; }
"$sl" --addr "127.0.0.1:$wild_port" --post /quitck | grep -q '"status":"draining"'
for _ in $(seq 1 50); do
  kill -0 "$wild_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$wild_pid" 2>/dev/null; then
  kill "$wild_pid"
  echo "serve on 0.0.0.0 still running 5 s after /quitck" >&2; exit 1
fi
wait "$wild_pid" \
  || { echo "serve on 0.0.0.0 did not drain cleanly" >&2; cat "$wild_log" >&2; exit 1; }
rm -f "$wild_log"

echo "CI green."
