#!/bin/sh
# Benchmark harness: runs the root benchmark suite (one iteration per
# benchmark unless overridden) as a compile/run smoke gate, and records a
# machine-readable snapshot of the headline numbers the ROADMAP tracks —
# executor op dispatch rate, end-to-end training-step time (dense and
# through-control-flow), distributed step time, MatMul GFLOPS, the
# fused-vs-unfused training-step ablation, and the serving tier's
# batched-vs-unbatched predict throughput and latency percentiles.
#
# Usage: scripts/bench.sh [benchtime] [output.json] [benchpattern]
#   benchtime     go -benchtime value (default 1x: smoke gate)
#   output        JSON snapshot path (default BENCH_PR10.json)
#   benchpattern  -bench regexp (default ".": whole suite); use a subset
#                 with a longer benchtime to refresh the snapshot stably
set -eu
cd "$(dirname "$0")/.."
BENCHTIME="${1:-1x}"
OUT="${2:-BENCH_PR10.json}"
PATTERN="${3:-.}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# POSIX sh has no pipefail: run go test on its own so that a benchmark that
# b.Fatals fails this script (and `make bench-smoke`), then show the output.
status=0
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count 1 . > "$TMP" 2>&1 || status=$?
cat "$TMP"
if [ "$status" -ne 0 ]; then
  echo "benchmark run FAILED (go test exit $status); no snapshot written" >&2
  exit "$status"
fi

# Fields are emitted only when their benchmark actually ran, so a
# subset-pattern refresh never writes zeros over the snapshot.
awk -v benchtime="$BENCHTIME" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  /^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
  /^BenchmarkExecutorNullOps/ {
    for (i = 1; i <= NF; i++) if ($(i + 1) == "Mops/s") mops = $i
  }
  /^BenchmarkTrainingStep/      { train_ns = $3 }
  /^BenchmarkWhileTrainingStep/ { while_ns = $3 }
  /^BenchmarkDistributedStep/ { dist_ns = $3 }
  /^BenchmarkReplicatedTrainingStep/ { repl_ns = $3 }
  /^BenchmarkPSApplySyncStep\/chief-apply/                 { sync_chief_ns = $3 }
  /^BenchmarkPSApplySyncStep\/ps-apply-sparse/              { sync_sparse_ns = $3 }
  /^BenchmarkPSApplySyncStep\/ps-apply/ && !/ps-apply-sparse/ { sync_ps_ns = $3 }
  /^BenchmarkMatMulGFLOPS\/float32\/256x256/ {
    for (i = 1; i <= NF; i++) if ($(i + 1) == "GFLOPS") gflops = $i
  }
  /^BenchmarkMatMulGFLOPS\/float32\/512x512/ {
    for (i = 1; i <= NF; i++) if ($(i + 1) == "GFLOPS") gflops512 = $i
  }
  /^BenchmarkMatMulGFLOPS\/float64\/256x256/ {
    for (i = 1; i <= NF; i++) if ($(i + 1) == "GFLOPS") gflops64 = $i
  }
  /^BenchmarkAblationFusedKernels\/fused/   { fused_ns = $3 }
  /^BenchmarkAblationFusedKernels\/unfused/ { unfused_ns = $3 }
  /^BenchmarkServePredict\/unbatched/ {
    for (i = 1; i <= NF; i++) {
      if ($(i + 1) == "qps")    serve0_qps = $i
      if ($(i + 1) == "p50-µs") serve0_p50 = $i
      if ($(i + 1) == "p99-µs") serve0_p99 = $i
    }
  }
  /^BenchmarkServePredict\/window=1ms/ {
    for (i = 1; i <= NF; i++) {
      if ($(i + 1) == "qps")    serve1_qps = $i
      if ($(i + 1) == "p50-µs") serve1_p50 = $i
      if ($(i + 1) == "p99-µs") serve1_p99 = $i
    }
  }
  /^BenchmarkServePredict\/window=5ms/ {
    for (i = 1; i <= NF; i++) {
      if ($(i + 1) == "qps")    serve5_qps = $i
      if ($(i + 1) == "p50-µs") serve5_p50 = $i
      if ($(i + 1) == "p99-µs") serve5_p99 = $i
    }
  }
  /^BenchmarkServePredict\/window=10ms/ {
    for (i = 1; i <= NF; i++) {
      if ($(i + 1) == "qps")    serve10_qps = $i
      if ($(i + 1) == "p50-µs") serve10_p50 = $i
      if ($(i + 1) == "p99-µs") serve10_p99 = $i
    }
  }
  END {
    n = 0
    lines[n++] = sprintf("  \"date\": \"%s\"", date)
    lines[n++] = sprintf("  \"benchtime\": \"%s\"", benchtime)
    if (cpu != "")      lines[n++] = sprintf("  \"cpu\": \"%s\"", cpu)
    if (mops != "")     lines[n++] = sprintf("  \"executor_null_ops_mops_per_s\": %s", mops)
    if (train_ns != "") lines[n++] = sprintf("  \"training_step_ns\": %s", train_ns)
    if (while_ns != "") lines[n++] = sprintf("  \"while_training_step_ns\": %s", while_ns)
    if (dist_ns != "")  lines[n++] = sprintf("  \"distributed_step_ns\": %s", dist_ns)
    if (repl_ns != "")  lines[n++] = sprintf("  \"replicated_training_step_ns\": %s", repl_ns)
    if (sync_chief_ns != "")  lines[n++] = sprintf("  \"sync_step_chief_apply_ns\": %s", sync_chief_ns)
    if (sync_ps_ns != "")     lines[n++] = sprintf("  \"sync_step_ps_apply_ns\": %s", sync_ps_ns)
    if (sync_sparse_ns != "") lines[n++] = sprintf("  \"sync_step_ps_apply_sparse_ns\": %s", sync_sparse_ns)
    if (gflops != "")   lines[n++] = sprintf("  \"matmul_256x256_gflops\": %s", gflops)
    if (gflops512 != "") lines[n++] = sprintf("  \"matmul_512x512_gflops\": %s", gflops512)
    if (gflops64 != "")  lines[n++] = sprintf("  \"matmul_f64_256x256_gflops\": %s", gflops64)
    if (fused_ns != "")   lines[n++] = sprintf("  \"fused_training_step_ns\": %s", fused_ns)
    if (unfused_ns != "") lines[n++] = sprintf("  \"unfused_training_step_ns\": %s", unfused_ns)
    if (serve0_qps != "")  lines[n++] = sprintf("  \"serve_unbatched_qps\": %s", serve0_qps)
    if (serve0_p50 != "")  lines[n++] = sprintf("  \"serve_unbatched_p50_us\": %s", serve0_p50)
    if (serve0_p99 != "")  lines[n++] = sprintf("  \"serve_unbatched_p99_us\": %s", serve0_p99)
    if (serve1_qps != "")  lines[n++] = sprintf("  \"serve_window_1ms_qps\": %s", serve1_qps)
    if (serve1_p50 != "")  lines[n++] = sprintf("  \"serve_window_1ms_p50_us\": %s", serve1_p50)
    if (serve1_p99 != "")  lines[n++] = sprintf("  \"serve_window_1ms_p99_us\": %s", serve1_p99)
    if (serve5_qps != "")  lines[n++] = sprintf("  \"serve_window_5ms_qps\": %s", serve5_qps)
    if (serve5_p50 != "")  lines[n++] = sprintf("  \"serve_window_5ms_p50_us\": %s", serve5_p50)
    if (serve5_p99 != "")  lines[n++] = sprintf("  \"serve_window_5ms_p99_us\": %s", serve5_p99)
    if (serve10_qps != "") lines[n++] = sprintf("  \"serve_window_10ms_qps\": %s", serve10_qps)
    if (serve10_p50 != "") lines[n++] = sprintf("  \"serve_window_10ms_p50_us\": %s", serve10_p50)
    if (serve10_p99 != "") lines[n++] = sprintf("  \"serve_window_10ms_p99_us\": %s", serve10_p99)
    printf "{\n"
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    printf "}\n"
  }' "$TMP" > "$OUT"
echo "bench snapshot written to $OUT"
