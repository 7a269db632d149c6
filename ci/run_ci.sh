#!/usr/bin/env bash
# CI lanes for Xplace. Run all lanes (default) or a single one:
#
#   ci/run_ci.sh [tier1|tier1-mt|tier1-scalar|tier1-serve|tier1-obs|tier1-chaos|tier1-batch|tier1-portfolio|faultinject|asan-ubsan|tsan|all]
#
#   tier1       plain build, full ctest suite
#   tier1-mt    same build, full ctest suite with XPLACE_THREADS=4 so every
#               module that consults the execution backend runs on the
#               threadpool — launch counts, numerics contracts, and recovery
#               logic must hold on both backends; then the place_bookshelf
#               demo at --threads 1 and 4 must write byte-identical .pl files
#               (a mismatch points at the GP density scatter's per-worker
#               reduction, the one kernel whose bits depend on the pool size)
#   tier1-scalar same build, full ctest suite with XPLACE_SIMD=scalar so the
#               whole flow runs on the scalar kernel table — the bitwise
#               determinism baseline must pass independent of host CPU
#               features
#   tier1-serve serving-subsystem smoke: start the xplace_serve daemon on a
#               Unix socket, drive it with xplace_client — two demo jobs, one
#               cancelled mid-run — assert both reach the expected terminal
#               state, and shut the daemon down gracefully (exit 0)
#   tier1-obs   observability-plane smoke (DESIGN.md §12): traced daemon runs
#               two jobs, the `metrics` scrape must expose the serve-level
#               SLO metric families, the Chrome trace must contain per-job
#               GP/LG/DP spans, and the perf-regression gate must pass its
#               selftest plus an advisory comparison against the committed
#               BENCH_simd.json baseline
#   tier1-chaos crash-recovery smoke (DESIGN.md §13): a daemon with
#               --state-dir runs three jobs, gets SIGKILLed mid-run after the
#               first XPCK spill lands, restarts over the same state dir,
#               must log that it is recovering, finish all three jobs, and
#               the resumed job's HPWL must bitwise-match an uninterrupted
#               reference run of the same spec
#   tier1-batch design-store + batch-sweep smoke (DESIGN.md §14): upload one
#               demo design, fan a 6-config sweep (with one repeated config)
#               over it, assert the daemon parsed the design exactly once
#               (serve_design_parses), every member reached a terminal done
#               state, and the repeated config was dedup-served by its twin
#   tier1-portfolio portfolio-racing smoke (DESIGN.md §16): a daemon with an
#               aggressive kill policy races a K=4 perturbed-restart
#               portfolio over 2 slots; the design must parse exactly once, a
#               winner must be selected, at least one laggard must be killed
#               early, and a fresh bench_portfolio run is compared (advisory)
#               against the committed BENCH_portfolio.json baseline
#   faultinject guardian/recovery tests (ctest -L faultinject) plus an
#               end-to-end XPLACE_FAULT matrix over the place_bookshelf demo:
#               every injected fault must be recovered (exit 0, legal result)
#   asan-ubsan  -DXPLACE_SANITIZE=address,undefined build; the recovery paths
#               (rollback, checkpoint restore, fault injection) are exactly
#               where stale pointers/uninitialized reads would hide, and the
#               SIMD kernels' masked heads/tails are exactly where
#               out-of-bounds lanes would hide, so the guardian and SIMD
#               parity suites run memory-clean under ASan+UBSan
#   tsan        -DXPLACE_SANITIZE=thread build, shared-state tests
#               (ctest -L concurrency) plus the end-to-end demo on the
#               threadpool backend — the full GP/LG/DP flow must be
#               race-clean under --threads 4
set -euo pipefail
cd "$(dirname "$0")/.."

lane="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

build() { # build <dir> [extra cmake args...]
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
}

run_tier1() {
  build build-ci
  ctest --test-dir build-ci --output-on-failure -j "$jobs"
}

run_tier1_mt() {
  build build-ci
  XPLACE_THREADS=4 ctest --test-dir build-ci --output-on-failure -j "$jobs"

  echo "=== tier1-mt lane: demo flow at --threads 1 vs 4 ==="
  local a="/tmp/xplace_ci_mt_$$.t1.pl" b="/tmp/xplace_ci_mt_$$.t4.pl"
  ./build-ci/examples/place_bookshelf --demo --threads 1 --out "$a" >/dev/null
  ./build-ci/examples/place_bookshelf --demo --threads 4 --out "$b" >/dev/null
  cmp "$a" "$b" \
      || { echo "placement differs between --threads 1 and 4" >&2; return 1; }
  rm -f "$a" "$b"
}

run_tier1_scalar() {
  build build-ci
  XPLACE_SIMD=scalar ctest --test-dir build-ci --output-on-failure -j "$jobs"
}

serve_fail() { # serve_fail <message>  (kills the daemon, then fails the lane)
  echo "$1" >&2
  kill "$serve_daemon_pid" 2>/dev/null || true
  return 1
}

run_tier1_serve() {
  build build-ci
  local sock="/tmp/xplace_ci_$$.sock"
  local client=./build-ci/examples/xplace_client

  echo "=== tier1-serve lane: daemon smoke on $sock ==="
  ./build-ci/examples/xplace_serve --socket "$sock" --jobs 2 &
  serve_daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || serve_fail "daemon never bound $sock" || return 1

  # Job 1 runs to completion; job 2 is long and gets cancelled mid-run.
  local id1 id2
  id1=$("$client" --socket "$sock" submit --demo-cells 1000 --max-iters 150 \
        --label ci_done | sed -n 's/.*"id":\([0-9]*\).*/\1/p') || true
  id2=$("$client" --socket "$sock" submit --demo-cells 8000 --max-iters 5000 \
        --label ci_cancel | sed -n 's/.*"id":\([0-9]*\).*/\1/p') || true
  { [ -n "$id1" ] && [ -n "$id2" ]; } \
      || serve_fail "submit failed" || return 1

  # Poll until job 2 streams its first progress events, then cancel it
  # immediately — many seconds before a run this size could finish.
  local ev="" streaming=0
  for _ in $(seq 1 100); do
    ev=$("$client" --socket "$sock" events --id "$id2" --timeout-s 0.2) || true
    if echo "$ev" | grep -q '"event"'; then streaming=1; break; fi
    sleep 0.1
  done
  [ "$streaming" = 1 ] \
      || serve_fail "no progress events streamed for job $id2" || return 1
  "$client" --socket "$sock" cancel --id "$id2" >/dev/null \
      || serve_fail "cancel failed" || return 1

  local r1 r2
  r1=$("$client" --socket "$sock" result --id "$id1" --wait --timeout-s 300) \
      || serve_fail "result for job $id1 failed" || return 1
  r2=$("$client" --socket "$sock" result --id "$id2" --wait --timeout-s 300) \
      || serve_fail "result for job $id2 failed" || return 1
  echo "job $id1: $r1"
  echo "job $id2: $r2"
  echo "$r1" | grep -q '"state":"done"' \
      || serve_fail "job 1 did not finish" || return 1
  echo "$r2" | grep -q '"state":"cancelled"' \
      || serve_fail "job 2 was not cancelled" || return 1
  echo "$r2" | grep -q '"stop_reason":"cancelled"' \
      || serve_fail "job 2 stop_reason wrong" || return 1

  # Graceful shutdown must complete and leave the daemon exiting 0.
  "$client" --socket "$sock" shutdown >/dev/null \
      || serve_fail "shutdown request failed" || return 1
  wait "$serve_daemon_pid" || serve_fail "daemon exited non-zero" || return 1
  echo "=== tier1-serve lane passed ==="
}

run_tier1_obs() {
  build build-ci
  local sock="/tmp/xplace_ci_obs_$$.sock"
  local trace="/tmp/xplace_ci_obs_$$.trace.json"
  local client=./build-ci/examples/xplace_client

  echo "=== tier1-obs lane: traced daemon + metrics scrape on $sock ==="
  ./build-ci/examples/xplace_serve --socket "$sock" --jobs 2 \
      --trace-out "$trace" &
  serve_daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || serve_fail "daemon never bound $sock" || return 1

  # Two demo jobs to terminal state so the SLO histograms have samples.
  local id
  for id in 1 2; do
    "$client" --socket "$sock" submit --demo-cells 800 --max-iters 120 \
        --label "obs$id" >/dev/null \
        || serve_fail "submit $id failed" || return 1
  done
  "$client" --socket "$sock" result --id 1 --wait --timeout-s 300 \
      | grep -q '"state":"done"' \
      || serve_fail "job 1 did not finish" || return 1
  "$client" --socket "$sock" result --id 2 --wait --timeout-s 300 \
      | grep -q '"state":"done"' \
      || serve_fail "job 2 did not finish" || return 1

  # Scrape surface: every serve-level metric family must be present, and the
  # histograms must carry enough samples to derive percentiles from.
  local metrics
  metrics=$("$client" --socket "$sock" metrics) \
      || serve_fail "metrics scrape failed" || return 1
  local family
  for family in \
      xplace_serve_queue_wait_s_bucket xplace_serve_queue_wait_s_count \
      xplace_serve_run_s_bucket xplace_serve_e2e_s_bucket \
      xplace_serve_submitted xplace_serve_completed; do
    echo "$metrics" | grep -q "$family" \
        || serve_fail "metric family missing from scrape: $family" || return 1
  done
  echo "$metrics" | grep -q 'xplace_serve_e2e_s_count 2' \
      || serve_fail "e2e histogram did not observe both jobs" || return 1

  # Stats carries server-side percentile summaries for the watch dashboard.
  "$client" --socket "$sock" stats | grep -q '"latency"' \
      || serve_fail "stats lacks the latency summary" || return 1

  "$client" --socket "$sock" shutdown >/dev/null \
      || serve_fail "shutdown request failed" || return 1
  wait "$serve_daemon_pid" || serve_fail "daemon exited non-zero" || return 1

  # The Chrome trace must hold one per-job timeline: job-root, GP, LG and DP
  # spans, plus per-job process_name tracks carrying the submit labels.
  [ -s "$trace" ] || serve_fail "daemon wrote no trace to $trace" || return 1
  local span
  for span in '"serve.job"' '"gp.run"' '"serve.lg"' '"serve.dp"' \
      'obs1' 'obs2' '"process_name"'; do
    grep -q "$span" "$trace" \
        || serve_fail "trace lacks $span" || return 1
  done
  rm -f "$trace"

  # Perf-regression gate: selftest (a synthetic 2x slowdown must be flagged),
  # then an advisory comparison of a fresh micro-bench run against the
  # committed baseline — advisory because shared CI runners are noisy.
  ./build-ci/bench/check_regression --selftest \
      || { echo "check_regression selftest failed" >&2; return 1; }
  local fresh="/tmp/xplace_ci_obs_$$.bench.json"
  ./build-ci/bench/bench_micro_ops --json "$fresh" >/dev/null \
      || { echo "bench_micro_ops run failed" >&2; return 1; }
  ./build-ci/bench/check_regression --baseline BENCH_simd.json \
      --current "$fresh" --advisory \
      || { echo "advisory regression check errored" >&2; return 1; }
  rm -f "$fresh"

  # Same gate over the FFT plan-engine transforms (dct2/idct2/idxst_idct and
  # the full Poisson solve, scalar/AVX2 x serial/pooled): a lost plan cache
  # or de-fused pass shows up as a ~2x ns_per_iter jump, well outside the
  # 60% per-row band BENCH_fft.json ships.
  local fresh_fft="/tmp/xplace_ci_obs_$$.fft.bench.json"
  ./build-ci/bench/bench_micro_ops --json-fft "$fresh_fft" >/dev/null \
      || { echo "bench_micro_ops --json-fft run failed" >&2; return 1; }
  ./build-ci/bench/check_regression --baseline BENCH_fft.json \
      --current "$fresh_fft" --advisory \
      || { echo "advisory FFT regression check errored" >&2; return 1; }
  rm -f "$fresh_fft"
  echo "=== tier1-obs lane passed ==="
}

run_tier1_chaos() {
  build build-ci
  local sock="/tmp/xplace_ci_chaos_$$.sock"
  local state="/tmp/xplace_ci_chaos_$$.state"
  local log="/tmp/xplace_ci_chaos_$$.log"
  local client=./build-ci/examples/xplace_client
  rm -rf "$state"

  # Job 1's spec, shared by the reference and the chaos run. Large enough
  # that the first spill (iter 50) lands many seconds before the run ends.
  local cells=8000 iters=400 spill=50

  echo "=== tier1-chaos lane: reference run (uninterrupted) ==="
  ./build-ci/examples/xplace_serve --socket "$sock" --jobs 1 &
  serve_daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || serve_fail "reference daemon never bound $sock" || return 1
  "$client" --socket "$sock" submit --demo-cells "$cells" \
      --max-iters "$iters" --label chaos_ref >/dev/null \
      || serve_fail "reference submit failed" || return 1
  local ref hpwl_ref
  ref=$("$client" --socket "$sock" result --id 1 --wait --timeout-s 600) \
      || serve_fail "reference result failed" || return 1
  echo "$ref" | grep -q '"state":"done"' \
      || serve_fail "reference job did not finish" || return 1
  hpwl_ref=$(echo "$ref" | sed -n 's/.*"hpwl":\([^,}]*\).*/\1/p')
  [ -n "$hpwl_ref" ] || serve_fail "no reference hpwl" || return 1
  "$client" --socket "$sock" shutdown >/dev/null \
      || serve_fail "reference shutdown failed" || return 1
  wait "$serve_daemon_pid" \
      || serve_fail "reference daemon exited non-zero" || return 1

  echo "=== tier1-chaos lane: SIGKILL mid-run, restart, recover ==="
  ./build-ci/examples/xplace_serve --socket "$sock" --jobs 1 \
      --state-dir "$state" --spill-every "$spill" >"$log" 2>&1 &
  serve_daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || serve_fail "chaos daemon never bound $sock" || return 1
  # Same spec as the reference, plus two queued jobs behind the single slot.
  "$client" --socket "$sock" submit --demo-cells "$cells" \
      --max-iters "$iters" --label chaos_resume >/dev/null \
      || serve_fail "chaos submit 1 failed" || return 1
  "$client" --socket "$sock" submit --demo-cells 1000 --max-iters 100 \
      --label chaos_q1 >/dev/null \
      || serve_fail "chaos submit 2 failed" || return 1
  "$client" --socket "$sock" submit --demo-cells 1000 --max-iters 100 \
      --label chaos_q2 >/dev/null \
      || serve_fail "chaos submit 3 failed" || return 1

  # Kill -9 the instant job 1's first durable spill lands: the journal now
  # holds a checkpoint record, jobs 2 and 3 are still queued.
  local spilled=0
  for _ in $(seq 1 600); do
    if [ -s "$state/job1.xpck" ]; then spilled=1; break; fi
    sleep 0.05
  done
  [ "$spilled" = 1 ] \
      || serve_fail "job 1 never spilled a checkpoint" || return 1
  kill -9 "$serve_daemon_pid"
  wait "$serve_daemon_pid" 2>/dev/null || true
  # The dead daemon's socket file survives the SIGKILL; remove it so the
  # bind-wait below observes the restarted daemon, not the stale inode.
  rm -f "$sock"

  ./build-ci/examples/xplace_serve --socket "$sock" --jobs 1 \
      --state-dir "$state" --spill-every "$spill" >"$log" 2>&1 &
  serve_daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || serve_fail "restarted daemon never bound $sock" || return 1
  grep -q "recovering 3 job" "$log" \
      || serve_fail "restart did not log journal recovery" || return 1

  # Every job must reach a terminal state; the interrupted one must have
  # resumed from its spill and reproduced the reference HPWL bit for bit
  # (compared as the %.17g JSON token — textually identical iff bitwise).
  local r1 hpwl_resumed
  r1=$("$client" --socket "$sock" result --id 1 --wait --timeout-s 600 \
       --wait-timeout-s 600) \
      || serve_fail "resumed job 1 result failed" || return 1
  echo "job 1 (resumed): $r1"
  echo "$r1" | grep -q '"state":"done"' \
      || serve_fail "resumed job 1 did not finish" || return 1
  echo "$r1" | grep -q '"recovered":true' \
      || serve_fail "job 1 lacks recovery provenance" || return 1
  echo "$r1" | grep -q '"resumed_from"' \
      || serve_fail "job 1 did not resume from its spill" || return 1
  hpwl_resumed=$(echo "$r1" | sed -n 's/.*"hpwl":\([^,}]*\).*/\1/p')
  [ "$hpwl_resumed" = "$hpwl_ref" ] \
      || serve_fail "resumed hpwl $hpwl_resumed != reference $hpwl_ref" \
      || return 1
  local id
  for id in 2 3; do
    "$client" --socket "$sock" result --id "$id" --wait --timeout-s 600 \
        | grep -q '"state":"done"' \
        || serve_fail "recovered job $id did not finish" || return 1
  done

  "$client" --socket "$sock" shutdown >/dev/null \
      || serve_fail "chaos shutdown failed" || return 1
  wait "$serve_daemon_pid" \
      || serve_fail "restarted daemon exited non-zero" || return 1
  rm -rf "$state" "$log"
  echo "=== tier1-chaos lane passed ==="
}

run_tier1_batch() {
  build build-ci
  local sock="/tmp/xplace_ci_batch_$$.sock"
  local client=./build-ci/examples/xplace_client

  echo "=== tier1-batch lane: parse-once sweep on $sock ==="
  ./build-ci/examples/xplace_serve --socket "$sock" --jobs 2 &
  serve_daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || serve_fail "daemon never bound $sock" || return 1

  # Upload once, sweep against the content hash. The second upload of the
  # same content must be a cache hit, not a second parse.
  local up hash
  up=$("$client" --socket "$sock" upload --demo-cells 2000) \
      || serve_fail "upload failed" || return 1
  hash=$(echo "$up" | sed -n 's/.*"design":"\([0-9a-f]*\)".*/\1/p')
  [ -n "$hash" ] || serve_fail "upload returned no design hash" || return 1
  "$client" --socket "$sock" upload --demo-cells 2000 \
      | grep -q '"cached":true' \
      || serve_fail "re-upload of identical content was not a cache hit" \
      || return 1

  # 6 configs: four seed points (seed 1 listed twice — the repeat must be
  # dedup-served by its twin, same job id) plus two density points.
  local batch
  batch=$("$client" --socket "$sock" sweep --design "$hash" \
          --max-iters 120 --grid 64 --gp-only --seeds 1,2,3,1 \
          --densities 0.75,0.9) \
      || serve_fail "sweep submit failed" || return 1
  echo "sweep: $batch"
  echo "$batch" | grep -q '"dedup":true' \
      || serve_fail "repeated config was not dedup-served" || return 1

  # Every member must land terminal done; the aggregate must see all 6.
  local result
  result=$("$client" --socket "$sock" batch-result --id 1 --wait \
           --timeout-s 300) \
      || serve_fail "batch-result failed" || return 1
  echo "$result" | grep -q '"all_terminal":true' \
      || serve_fail "batch did not reach all-terminal" || return 1
  echo "$result" | grep -q '"done":6' \
      || serve_fail "batch did not finish all 6 members done" || return 1
  echo "$result" | grep -q '"best_hpwl"' \
      || serve_fail "batch aggregate lacks best_hpwl" || return 1

  # The whole point: one design, six configs, exactly ONE parse — and the
  # dedup counter must have seen the repeated config.
  local metrics
  metrics=$("$client" --socket "$sock" metrics) \
      || serve_fail "metrics scrape failed" || return 1
  echo "$metrics" | grep -q '^xplace_serve_design_parses 1$' \
      || serve_fail "design was parsed more than once across the batch" \
      || return 1
  echo "$metrics" | grep -q '^xplace_serve_dedup_hits 1$' \
      || serve_fail "dedup counter did not record the repeated config" \
      || return 1

  "$client" --socket "$sock" shutdown >/dev/null \
      || serve_fail "shutdown request failed" || return 1
  wait "$serve_daemon_pid" || serve_fail "daemon exited non-zero" || return 1
  echo "=== tier1-batch lane passed ==="
}

run_tier1_portfolio() {
  build build-ci
  local sock="/tmp/xplace_ci_portfolio_$$.sock"
  local client=./build-ci/examples/xplace_client

  echo "=== tier1-portfolio lane: K-way racing on $sock ==="
  # Aggressive racing so the lane deterministically exercises the kill path:
  # a 3-iteration grace window, any strictly-worse HPWL qualifies, and the
  # overflow gate never saves a laggard.
  ./build-ci/examples/xplace_serve --socket "$sock" --jobs 2 \
      --portfolio-poll-s 0.05 --kill-min-iter 3 --kill-margin 1.0 \
      --kill-slack -10 &
  serve_daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || serve_fail "daemon never bound $sock" || return 1

  local up hash
  up=$("$client" --socket "$sock" upload --demo-cells 2000) \
      || serve_fail "upload failed" || return 1
  hash=$(echo "$up" | sed -n 's/.*"design":"\([0-9a-f]*\)".*/\1/p')
  [ -n "$hash" ] || serve_fail "upload returned no design hash" || return 1

  # K=4 perturbed restarts over 2 slots: the racer must kill at least one
  # laggard while the members are mid-flight.
  local pf
  pf=$("$client" --socket "$sock" portfolio --design "$hash" --k 4 \
       --seed 1 --max-iters 1500 --grid 64 --gp-only) \
      || serve_fail "submit-portfolio failed" || return 1
  echo "portfolio: $pf"
  echo "$pf" | grep -q '"portfolio":1' \
      || serve_fail "submit-portfolio returned no portfolio id" || return 1

  local result
  result=$("$client" --socket "$sock" portfolio-result --id 1 --wait \
           --timeout-s 300) \
      || serve_fail "portfolio-result failed" || return 1
  echo "$result" | grep -q '"all_terminal":true' \
      || serve_fail "portfolio did not reach all-terminal" || return 1
  echo "$result" | grep -q '"winner"' \
      || serve_fail "portfolio selected no winner" || return 1
  echo "$result" | grep -Eq '"killed":[1-9]' \
      || serve_fail "racer killed no laggard" || return 1

  # One design, K members, exactly ONE parse; the kill counter must agree.
  local metrics
  metrics=$("$client" --socket "$sock" metrics) \
      || serve_fail "metrics scrape failed" || return 1
  echo "$metrics" | grep -q '^xplace_serve_design_parses 1$' \
      || serve_fail "design was parsed more than once across the portfolio" \
      || return 1
  echo "$metrics" | grep -Eq '^xplace_serve_portfolio_killed [1-9]' \
      || serve_fail "portfolio kill counter did not record the laggard" \
      || return 1

  "$client" --socket "$sock" shutdown >/dev/null \
      || serve_fail "shutdown request failed" || return 1
  wait "$serve_daemon_pid" || serve_fail "daemon exited non-zero" || return 1

  # Quality gate, advisory on shared runners: fresh single-vs-kick-vs-best-
  # of-K HPWL numbers against the committed BENCH_portfolio.json baseline
  # (the HPWL rows are bitwise-deterministic; the core-second rows are not).
  local fresh="/tmp/xplace_ci_portfolio_$$.bench.json"
  ./build-ci/bench/bench_portfolio --json "$fresh" >/dev/null \
      || { echo "bench_portfolio run failed" >&2; return 1; }
  ./build-ci/bench/check_regression --baseline BENCH_portfolio.json \
      --current "$fresh" --advisory \
      || { echo "advisory portfolio regression check errored" >&2; return 1; }
  rm -f "$fresh"
  echo "=== tier1-portfolio lane passed ==="
}

run_faultinject() {
  build build-ci
  ctest --test-dir build-ci --output-on-failure -L faultinject

  # End-to-end env-driven matrix: the full flow must survive every fault kind
  # (and a multi-fault plan) and still produce a legal placement.
  local faults=(
    "nonfinite_grad@iter:120"
    "spike@iter:120"
    "alloc_fail@iter:40"
    "spike@iter:110,nonfinite_grad@iter:140"
  )
  for fault in "${faults[@]}"; do
    echo "=== faultinject lane: XPLACE_FAULT=$fault ==="
    XPLACE_FAULT="$fault" ./build-ci/examples/place_bookshelf \
        --demo --cells 2000 --max-iters 400
  done
}

run_asan_ubsan() {
  build build-asan -DXPLACE_SANITIZE=address,undefined
  ctest --test-dir build-asan --output-on-failure -L "faultinject|simd"
}

run_tsan() {
  build build-tsan-ci -DXPLACE_SANITIZE=thread
  ctest --test-dir build-tsan-ci --output-on-failure -L concurrency
  # End-to-end flow under the threadpool backend: GP scatter/gather/WA
  # partitions and pooled FFT passes race-checked in one run (LG and DP run
  # on the calling thread).
  echo "=== tsan lane: place_bookshelf --threads 4 ==="
  ./build-tsan-ci/examples/place_bookshelf --demo --cells 2000 \
      --max-iters 300 --threads 4
}

case "$lane" in
  tier1)        run_tier1 ;;
  tier1-mt)     run_tier1_mt ;;
  tier1-scalar) run_tier1_scalar ;;
  tier1-serve)  run_tier1_serve ;;
  tier1-obs)    run_tier1_obs ;;
  tier1-chaos)  run_tier1_chaos ;;
  tier1-batch)  run_tier1_batch ;;
  tier1-portfolio) run_tier1_portfolio ;;
  faultinject)  run_faultinject ;;
  asan-ubsan)   run_asan_ubsan ;;
  tsan)         run_tsan ;;
  all)          run_tier1; run_tier1_mt; run_tier1_scalar; run_tier1_serve
                run_tier1_obs; run_tier1_chaos; run_tier1_batch
                run_tier1_portfolio
                run_faultinject; run_asan_ubsan; run_tsan ;;
  *) echo "unknown lane '$lane' (tier1|tier1-mt|tier1-scalar|tier1-serve|tier1-obs|tier1-chaos|tier1-batch|tier1-portfolio|faultinject|asan-ubsan|tsan|all)" >&2
     exit 2 ;;
esac
echo "ci lane(s) '$lane' passed"
