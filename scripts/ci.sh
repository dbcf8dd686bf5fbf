#!/usr/bin/env bash
# CI entry point: tier-1 tests under the default build, then the same suites
# under ASan+UBSan and TSan. The fault suite (rolp_fault_tests) is part of
# every preset's ctest run, so the fail-point catalog — including the GC
# watchdog stall/death scenarios — is exercised under all three.
#
# Usage: scripts/ci.sh [preset ...]
#   With no arguments runs: default asan-ubsan tsan
set -euo pipefail

cd "$(dirname "$0")/.."

PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(default asan-ubsan tsan)
fi

for preset in "${PRESETS[@]}"; do
  echo "=== [$preset] configure"
  cmake --preset "$preset"
  echo "=== [$preset] build"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] test"
  ctest --preset "$preset"
  if [ "$preset" = tsan ]; then
    # Dispatch races in the GC worker pool (a bounded spin inside pause
    # brackets, then a parked waiter), termination races in the work-stealing
    # pool, lock-free class lookups, safepoint stops racing thread
    # registration, incremental-mark slices racing barrier pushes and ZGC
    # load-barrier copies, the evacuation driver (CMS scavenges, mutator heals
    # in concurrent evacuation, watchdog stalls and cancellation), and the
    # open-loop service engine (one generator feeding per-shard queues and
    # waking their idle workers) show up only in rare interleavings: repeat
    # those suites.
    echo "=== [$preset] dispatch, termination, safepoint, marking, evacuation and service races (20 repeats)"
    ctest --preset "$preset" \
      -R 'WorkerPool|StealableQueue|WorkStealing|ClassRegistry|Safepoint|Marking|CmsCollector|ZgcCollector|ConcurrentEvac|Watchdog|OpenLoopService|ShardedService|ConsistentHashRouter|Pacer' \
      --repeat until-fail:20 --no-tests=error
  fi
done

# Bench smoke: the microbenchmarks must still run to completion (one
# iteration each — this checks the harness, not the numbers).
echo "=== bench smoke"
if [ -x build/bench/bench_micro ]; then
  build/bench/bench_micro --benchmark_min_time=0.001 >/dev/null
fi
if [ -x build/bench/bench_pause ]; then
  build/bench/bench_pause --benchmark_filter='BM_ProfilerGcEndInference' \
    --benchmark_min_time=0.001 >/dev/null
fi

# Bench regression smoke (ROLP_BENCH_CHECK=0 skips): re-measure the gated
# latency-critical benchmarks and compare medians against the committed
# baselines; >25% regression fails. Gated set: the allocation fast path and
# the in-pause profiler cost — the two numbers this repo exists to keep small.
if [ "${ROLP_BENCH_CHECK:-1}" != "0" ] && command -v python3 >/dev/null; then
  echo "=== bench regression check"
  if [ -f BENCH_micro.json ] && [ -x build/bench/bench_micro ]; then
    build/bench/bench_micro \
      --benchmark_filter='BM_AllocProfiled|BM_AllocUnprofiled|BM_RegionAllocContention|BM_IngestAllocPath' \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
      --benchmark_out_format=json --benchmark_out=/tmp/ci_bench_micro.json >/dev/null
    python3 scripts/check_bench_regression.py BENCH_micro.json /tmp/ci_bench_micro.json \
      --threshold 0.25 --require 'BM_AllocProfiled' \
      --require 'BM_RegionAllocContention' \
      --require 'BM_IngestAllocPath'
  fi
  if [ -f BENCH_pause.json ] && [ -x build/bench/bench_pause ]; then
    build/bench/bench_pause \
      --benchmark_filter='BM_ProfilerGcEndInference|BM_VerifyPauseOverhead|BM_PauseConcurrentEvac' \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
      --benchmark_out_format=json --benchmark_out=/tmp/ci_bench_pause.json >/dev/null
    python3 scripts/check_bench_regression.py BENCH_pause.json /tmp/ci_bench_pause.json \
      --threshold 0.25 --require 'BM_ProfilerGcEndInference' \
      --require 'BM_VerifyPauseOverhead' \
      --require 'BM_PauseConcurrentEvac'
  fi
fi

# Observability smoke (DESIGN.md §11): run the kvstore service with tracing,
# metrics dump (JSON + Prometheus exposition), and the OLD-table dump enabled,
# then validate every artifact — well-formed JSON, the required GC/watchdog/
# profiler event names, the required gauges, a parseable Prometheus payload,
# and a non-empty introspection dump.
if command -v python3 >/dev/null && [ -x build/examples/kvstore_service ]; then
  echo "=== observability smoke"
  ROLP_TRACE=/tmp/ci_rolp_trace.json \
  ROLP_METRICS_DUMP=/tmp/ci_rolp_metrics.json \
  ROLP_METRICS_FORMAT=prom \
  ROLP_DUMP_OLD_TABLE=/tmp/ci_rolp_old_table.txt \
    build/examples/kvstore_service rolp 2 closed >/dev/null
  python3 scripts/validate_observability.py \
    /tmp/ci_rolp_trace.json /tmp/ci_rolp_metrics.json /tmp/ci_rolp_old_table.txt \
    /tmp/ci_rolp_metrics.json.prom
fi

# Overload smoke (DESIGN.md §13): open-loop kvstore at 2x the calibrated
# closed-loop capacity on a small heap. The run must survive without a VM
# abort, actually shed/reject load (--require-shed), and meet the SLO verdict
# it prints; check_slo.py gates on the all-time p99.9 lateness. The unit-test
# version of this lives in tests/service/service_test.cc; this one exercises
# the full calibrate -> overload -> verdict path end to end.
# ROLP_OVERLOAD_EXTENDED=1 stretches it to the 60s acceptance soak;
# ROLP_OVERLOAD_CHECK=0 skips.
if [ "${ROLP_OVERLOAD_CHECK:-1}" != "0" ] && command -v python3 >/dev/null \
   && [ -x build/examples/kvstore_service ]; then
  echo "=== overload smoke"
  OVERLOAD_SECONDS=8
  if [ "${ROLP_OVERLOAD_EXTENDED:-0}" = "1" ]; then
    OVERLOAD_SECONDS=60
  fi
  build/examples/kvstore_service rolp "$OVERLOAD_SECONDS" open \
    | tee /tmp/ci_overload.txt | tail -3
  python3 scripts/check_slo.py /tmp/ci_overload.txt --require-shed
fi

# Sharded-service smoke (DESIGN.md §15): four VM shards behind one open-loop
# generator with per-shard heap arenas and the uncommit sweeper armed. Gates:
# the *merged* SLO verdict passes with zero aborts across all shard VMs, the
# verdict really covers 4 shards, and process RSS drops >= 25% within
# 2 x ROLP_HEAP_UNCOMMIT_MS once load stops (idle regions actually returned
# to the OS, not just to the free lists). ROLP_SHARDED_CHECK=0 skips.
if [ "${ROLP_SHARDED_CHECK:-1}" != "0" ] && command -v python3 >/dev/null \
   && [ -x build/examples/kvstore_service ]; then
  echo "=== sharded service smoke"
  ROLP_SHARDS=4 ROLP_HEAP_UNCOMMIT_MS=1000 ROLP_SERVICE_RATE=14000 \
    build/examples/kvstore_service rolp 8 open \
    | tee /tmp/ci_sharded.txt | tail -3
  python3 scripts/check_slo.py /tmp/ci_sharded.txt \
    --require-shards 4 --min-rss-drop 0.25
fi

# Ingest smoke (DESIGN.md §16): the market-data pipeline at the default
# open-loop schedule (300k events @ 100k eps), all four memory arms in one
# invocation. check_ingest.py gates the single INGEST_VERDICT: every arm
# survived and analyzed every event, offered rate within 2% of target (the
# absolute-deadline pacing guarantee), and — because this repo's reason to
# exist is the tail — the ROLP arm's p99.9 at or under the G1 arm's. The
# gate runs at the full default event count on purpose: shorter runs see too
# few post-warmup collections for the arm comparison to be stable.
# ROLP_INGEST_CHECK=0 skips.
if [ "${ROLP_INGEST_CHECK:-1}" != "0" ] && command -v python3 >/dev/null \
   && [ -x build/examples/marketdata_pipeline ]; then
  echo "=== ingest smoke"
  build/examples/marketdata_pipeline all \
    | tee /tmp/ci_ingest.txt | tail -2
  python3 scripts/check_ingest.py /tmp/ci_ingest.txt --require-rolp-tail
  # Chaos leg: 6 fixed seeds over the ingest.* fault points (wire corruption,
  # queue stalls, allocation spikes, pool exhaustion, analytics spikes) on a
  # short pooled+VM run. Faults may cost drops — that is their job — so the
  # gate here is only "no crash": the pipeline must degrade, not die.
  for s in 1 2 3 4 5 6; do
    ROLP_CHAOS="seed:$s,rate:0.001,points:ingest.*" \
    ROLP_INGEST_EVENTS=30000 ROLP_INGEST_RATE=1000000 \
      build/examples/marketdata_pipeline pooled,g1 >/dev/null \
      || { status=$?; [ "$status" -le 1 ] || { echo "ingest chaos seed $s crashed (exit $status)"; exit 1; }; }
  done
  echo "ingest chaos: 6 seeds survived"
fi

# Chaos smoke (DESIGN.md §12): fixed-seed campaigns over the kvstore workload
# with in-pause verification on. Every injected-fault outcome must be
# survivable (quarantined / degraded / watchdog-fallback / recovered / clean);
# a crash-classified outcome fails, and chaos.py prints the minimized
# ROLP_FAULTS spec that reproduces it. ROLP_CHAOS_EXTENDED=1 widens the sweep
# for nightly runs; ROLP_CHAOS_CHECK=0 skips entirely.
if [ "${ROLP_CHAOS_CHECK:-1}" != "0" ] && command -v python3 >/dev/null \
   && [ -x build/tests/chaos_campaign ]; then
  echo "=== chaos smoke"
  CHAOS_SEEDS=6
  CHAOS_SECONDS=1
  if [ "${ROLP_CHAOS_EXTENDED:-0}" = "1" ]; then
    CHAOS_SEEDS=100
    CHAOS_SECONDS=2
  fi
  python3 scripts/chaos.py --seeds "$CHAOS_SEEDS" --seconds "$CHAOS_SECONDS" \
    --rate 0.001 --verify pause --sample 1 --out /tmp/ci_chaos_report.json
  # One deterministic lost-barrier replay: the exact acceptance scenario
  # (remset drop caught in-pause, survived via quarantine), pinned by spec
  # rather than by seed so it cannot rotate out of coverage.
  build/tests/chaos_campaign --seconds=1 --sample=1 \
    --faults='heap.remset.drop=every:64' \
    | tail -1 | grep -q '^CHAOS_RESULT '
  # Concurrent-evacuation chaos leg: same campaign with ROLP_CONCURRENT_EVAC
  # on so the gc.concurrent_evac.* points arm and fire while the load barrier
  # is hot (copy stalls, mutator copy failures, mid-flight cancellation). The
  # rare-hit points need a higher rate than the broad sweep to fire within
  # the smoke window.
  # None of these points corrupts the heap, so every run must also end with
  # zero heap-corruption reports.
  ROLP_CONCURRENT_EVAC=on python3 scripts/chaos.py \
    --seeds "$CHAOS_SEEDS" --seconds "$CHAOS_SECONDS" \
    --rate 0.05 --points 'gc.concurrent_evac.*' --verify pause --sample 1 \
    --out /tmp/ci_chaos_concurrent_report.json
  python3 scripts/check_chaos_clean.py /tmp/ci_chaos_concurrent_report.json
  # Pinned replay of the cancellation ladder: cancel the second concurrent
  # window mid-flight; the cycle must finish STW via the full-collection
  # fallback with no lost objects (zero heap-corruption reports).
  ROLP_CONCURRENT_EVAC=on build/tests/chaos_campaign --seconds=1 --sample=1 \
    --faults='gc.concurrent_evac.cancel=once:2' > /tmp/ci_chaos_cancel.txt
  python3 scripts/check_chaos_clean.py /tmp/ci_chaos_cancel.txt
  # Inert-spec G1 concurrent leg: a fault spec that never fires, so the run
  # exercises plain concurrent evacuation (with its to-space exhaustion
  # self-forwards) under in-pause verification, which must find nothing.
  ROLP_CONCURRENT_EVAC=on build/tests/chaos_campaign --seconds=1 --sample=1 \
    --gc=g1 --faults='gc.pause.inflate=once:1000000' > /tmp/ci_chaos_inert.txt
  python3 scripts/check_chaos_clean.py /tmp/ci_chaos_inert.txt
  # Region commit-lifecycle chaos: arenas + a fast uncommit sweeper armed
  # while heap.region.* faults fire — commit failure (simulated ENOMEM on
  # recommit) must roll back to a recoverable OOM, uncommit failure must
  # leave the region committed, and recommitted regions must read back as
  # zero (in-pause verification would flag stale bytes as corruption).
  ROLP_HEAP_ARENAS=2 ROLP_HEAP_UNCOMMIT_MS=25 python3 scripts/chaos.py \
    --seeds "$CHAOS_SEEDS" --seconds "$CHAOS_SECONDS" \
    --rate 0.05 --points 'heap.region.*' --verify pause --sample 1 \
    --out /tmp/ci_chaos_region_report.json
fi

# Verifier-enabled kvstore smoke under the sanitizer build: the quarantine
# and healing paths must be clean under ASan, not just crash-free.
if [ -x build-asan/examples/kvstore_service ]; then
  echo "=== asan verifier smoke"
  ROLP_VERIFY=pause ROLP_VERIFY_SAMPLE=1 \
    build-asan/examples/kvstore_service rolp 1 >/dev/null
fi

echo "=== all presets passed: ${PRESETS[*]}"
