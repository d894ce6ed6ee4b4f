#!/usr/bin/env bash
# Correctness gate for the parallel execution layer, the kernel layer and
# the persistent parameter store:
#   1. regular build + full test suite, a build of the repository
#      benchmark's perfbench program and one short run of each of its
#      workloads, which must report correct answers, then
#      snapshot_inspect --selftest
#      (train -> versioned snapshot write -> zero-copy open -> bitwise
#      score check -> retrieval index over the mapping) and
#      scenerec_serve --selftest (the binary trains through the snapshot
#      store, then concurrent clients through the batched admission loop
#      across a hot swap onto the zero-copy snapshot, bitwise-checked
#      against TopNRecommendations) and scenerec_stat --selftest (a daemon
#      with the observability plane on: windowed percentiles that move with
#      load, healthz/SLO transitions, every socket verb), all against
#      freshly trained mini-models
#   2. ThreadSanitizer build (-DSCENEREC_SANITIZE=thread) + the tests that
#      exercise concurrency (ThreadPool, sharded training, parallel eval,
#      the serving daemon)
#   3. ASan+UBSan build (-DSCENEREC_SANITIZE=address,undefined) + the tensor
#      and op tests, which cover the arena allocator (manual ASan poisoning
#      marks reset and never-allocated arena bytes as redzones) and every
#      vectorized kernel's pointer arithmetic, the nn tests, which run the
#      optimizer's per-row updates, and the eval tests, which hold TopK (the
#      one selector) to a full sort
#   4. (opt-in: SCENEREC_PERF=1) benchmark regression gate — re-measures the
#      benchmark suites and fails via tools/bench_diff --check when any
#      benchmark regressed past SCENEREC_PERF_THRESHOLD percent (default 20;
#      generous because single-CPU containers are noisy)
#
# Sanitizer-instrumented training is ~10x slower, so stages 2 and 3 run only
# the binaries relevant to them, not the whole suite. Run from the repo
# root; build trees land in build/, build-perfbench/, build-tsan/ and
# build-asan/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Configure `dir` with the remaining args. Prefers Ninja for fresh build
# directories but leaves an already-configured tree on its existing
# generator (cmake errors out on a generator switch).
configure() {
  local dir="$1"
  shift
  if [ ! -f "$dir/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    cmake -B "$dir" -G Ninja "$@"
  else
    cmake -B "$dir" "$@"
  fi
}

echo "==> stage 1: regular build + ctest"
configure build
cmake --build build
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==> stage 1: perfbench build"
# The top-level build leaves perfbench/ out, so without this a change to an
# API the benchmark program calls would pass ctest and fail only the
# benchmark run. Its own project builds the library from this checkout.
configure build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench --target perfbench

echo "==> stage 1: perfbench output checks"
# Each BENCHMARK.json workload once, short and untraced (about a minute in
# all). perfbench checks every answer it serves or scores against the
# library path, so a change that alters a served answer fails here rather
# than only in a benchmark run. The last output line is the result JSON.
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  result="$(build-perfbench/perfbench --workload "$workload" --seed 7 --seconds 2 --trace 0 | tail -n 1)"
  if ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result"; then
    echo "perfbench $workload: answers do not match the library path: $result" >&2
    exit 1
  fi
done

echo "==> stage 1: snapshot store end-to-end selftest"
# Full persistent-store chain against a freshly trained mini-model; exits
# non-zero on any score drift, versioning bug, or index mismatch.
build/tools/snapshot_inspect --selftest

echo "==> stage 1: serving daemon end-to-end selftest"
# Trains a mini-model through the snapshot store, then drives the batched
# admission loop from concurrent clients across one hot swap onto the
# newest snapshot opened zero-copy, and bitwise-compares every response
# against TopNRecommendations. The daemon's other modes are serve_test's.
build/tools/scenerec_serve --selftest

echo "==> stage 1: stats CLI end-to-end selftest"
# Spins up a daemon with the stats socket enabled, drives traffic, and
# checks every scrape verb plus the CLI's parser and table renderer.
build/tools/scenerec_stat --selftest

echo "==> stage 2: ThreadSanitizer build"
configure build-tsan -DSCENEREC_SANITIZE=thread
cmake --build build-tsan --target parallel_test eval_test scoring_test train_test telemetry_test trace_test snapshot_test retrieval_test serve_test common_test repr_cache_test scenerec_serve scenerec_stat

echo "==> stage 2: parallel tests under TSan"
# halt_on_error makes a data race fail the script, not just print a report.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
build-tsan/tests/parallel_test
build-tsan/tests/eval_test
# Concurrent ScoreBlock sweeps over the prefilled eval caches — the block
# path's version of the parallel-eval pure-read contract.
build-tsan/tests/scoring_test
build-tsan/tests/train_test
# The telemetry merge path is the TSan-critical one: per-thread slab writers
# racing with Snapshot() scrapers must be data-race-free (relaxed atomics).
build-tsan/tests/telemetry_test
# Trace rings are written by their owning threads through relaxed atomics
# under a per-slot sequence word, and read by Drain/Snapshot at any time:
# TSan checks a drain looping against four live writers, ParallelFor's
# cross-thread nesting and a traced training run.
build-tsan/tests/trace_test
# Snapshot open/bind/retire: the mapping pins are shared_ptr owners that a
# retiring model releases on whichever thread drops it last. The hot swap
# of a snapshot-bound model under live traffic runs in serve_test below.
build-tsan/tests/snapshot_test
# One shared ItemIndex serving concurrent Search calls on pool threads:
# const reads of centroids/lists/codes with all scratch query-local.
build-tsan/tests/retrieval_test
# The demand-paged repr cache: sharded locking under concurrent
# Lookup/Insert from many threads — the slot-reuse path is the race surface.
build-tsan/tests/repr_cache_test
# The serving daemon's MPMC queue, batched admission loop and hot swap under
# live client threads — the cross-request batching contract is only real if
# TSan can't find a race between clients, the admission thread and Publish.
# Includes the lazy warm-up tests: compute-on-miss fills racing a cold-cache
# hot swap.
build-tsan/tests/serve_test
# The socket server's accept loop against concurrent and malformed clients.
# The stats endpoint's windowed-histogram ticker, SLO tracker and `trace`
# verb (a drain racing the admission thread's spans) run in serve_test
# above and in scenerec_stat --selftest below.
build-tsan/tests/common_test
build-tsan/tools/scenerec_serve --selftest
build-tsan/tools/scenerec_stat --selftest

echo "==> stage 3: ASan+UBSan build"
configure build-asan -DSCENEREC_SANITIZE=address,undefined
cmake --build build-asan --target tensor_test ops_test nn_test eval_test telemetry_test train_test trace_test scoring_test snapshot_test retrieval_test serve_test common_test repr_cache_test scenerec_serve scenerec_stat

echo "==> stage 3: tensor/op tests under ASan+UBSan"
build-asan/tests/tensor_test
build-asan/tests/ops_test

echo "==> stage 3: optimizer row updates under ASan+UBSan"
# RMSProp's lazy step indexes value, gradient and cache at row * cols for
# every touched row; a row id past the table, or a cache sized for another
# parameter, reads or writes out of bounds here.
build-asan/tests/nn_test

echo "==> stage 3: top-k selection under ASan+UBSan"
# TopK's buffer shrinks, threshold skips and chunk merges, and the Top-N
# path's per-thread block scratch: an off-by-one in the block offer's
# four-row stride or a stale buffer reuse reads out of bounds here.
build-asan/tests/eval_test

echo "==> stage 3: telemetry + trainer divergence tests under ASan+UBSan"
# Thread-exit slab retirement and the NaN-injection abort paths both free /
# unwind mid-training; ASan verifies nothing dangles or leaks on those exits.
build-asan/tests/telemetry_test
build-asan/tests/train_test --gtest_filter='TrainTest.NonFinite*:TrainTest.EarlyStop*'

echo "==> stage 3: block-scoring equivalence under ASan+UBSan"
# Span/subspan chunking arithmetic and the gather-into-matrix copies in
# every model's ScoreBlock; UBSan additionally checks TopK's comparator for
# strict-weak-ordering misuse symptoms (invalid indexing).
build-asan/tests/scoring_test

echo "==> stage 3: trace ring + export under ASan+UBSan"
# Ring wraparound arithmetic, the args word copies of a drain racing its
# writers and the JSON exporter are exactly the kind of off-by-one surface
# ASan exists for.
build-asan/tests/trace_test

echo "==> stage 3: snapshot mapping lifetime under ASan+UBSan"
# Unmap-after-drain: reads through borrowed views and retired models after
# snapshot handles drop are use-after-munmap bugs if any pin is missing —
# ASan turns them into hard failures instead of lucky reads.
build-asan/tests/snapshot_test

echo "==> stage 3: retrieval index paths under ASan+UBSan"
# Each backend's TopK offers, the exact sweep's per-lane tiles and chunk
# merge, CSR inverted-list walks, k-means scratch, and
# index-over-mmap'd-snapshot reads (a missing mapping pin on a borrowed
# item table is a use-after-munmap here).
build-asan/tests/retrieval_test

echo "==> stage 3: serving daemon under ASan+UBSan"
# The repr cache's slot-parallel arrays and memcpy row copies — wrong slot
# arithmetic on the contiguous [slots, dim] block is a heap overflow here.
build-asan/tests/repr_cache_test
# Request/result lifetime across the queue handoff (caller-owned output
# vectors written by the admission thread), Stop-time drain, and the model
# retirement path while responses are still being copied out.
build-asan/tests/serve_test
build-asan/tools/scenerec_serve --selftest

echo "==> stage 3: observability plane under ASan+UBSan"
# Socket framing (length-prefixed reads into resized strings, overlong,
# binary and cut-off request lines), the JSON / Prometheus renderers'
# snprintf buffers, and CLI parsing of scraped text.
build-asan/tests/common_test
build-asan/tools/scenerec_stat --selftest

if [ "${SCENEREC_PERF:-0}" != "0" ]; then
  echo "==> stage 4: benchmark regression gate (SCENEREC_PERF=1)"
  THRESHOLD="${SCENEREC_PERF_THRESHOLD:-20}"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  cmake --build build --target bench_kernels bench_parallel bench_scoring bench_snapshot bench_retrieval bench_serve bench_observe
  # Recorded like tools/bench.sh does, so bench_diff refuses a comparison
  # across build types.
  BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
  CONTEXT="--benchmark_context=build_type=${BUILD_TYPE:-Release}"
  build/bench/bench_kernels "${CONTEXT}" --benchmark_format=json >"$tmp/kernels.json"
  build/bench/bench_parallel "${CONTEXT}" --benchmark_format=json >"$tmp/parallel.json"
  build/bench/bench_scoring "${CONTEXT}" --benchmark_format=json >"$tmp/scoring.json"
  build/bench/bench_snapshot "${CONTEXT}" --benchmark_format=json >"$tmp/snapshot.json"
  build/bench/bench_retrieval "${CONTEXT}" --benchmark_format=json >"$tmp/retrieval.json"
  build/bench/bench_serve --benchmark_filter='BM_Serve' "${CONTEXT}" --benchmark_format=json >"$tmp/serve.json"
  build/bench/bench_serve --benchmark_filter='BM_Cache' "${CONTEXT}" --benchmark_format=json >"$tmp/cache.json"
  build/bench/bench_observe "${CONTEXT}" --benchmark_format=json >"$tmp/observe.json"
  build/bench/bench_parallel \
    --benchmark_filter='BM_TrainEpochTelemetry' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    "${CONTEXT}" --benchmark_format=json >"$tmp/telemetry.json"
  build/bench/bench_parallel \
    --benchmark_filter='BM_TrainEpochTrace' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    "${CONTEXT}" --benchmark_format=json >"$tmp/trace.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_kernels.json "$tmp/kernels.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_parallel.json "$tmp/parallel.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_scoring.json "$tmp/scoring.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_snapshot.json "$tmp/snapshot.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_retrieval.json "$tmp/retrieval.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_serve.json "$tmp/serve.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_cache.json "$tmp/cache.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_observe.json "$tmp/observe.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_telemetry.json "$tmp/telemetry.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_trace.json "$tmp/trace.json"
fi

echo "==> all checks passed"
