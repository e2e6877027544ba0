#!/bin/sh
# Tier-1 CI gate. The gate itself is defined once, in the Makefile:
#   gofmt -l gating  →  go vet  →  go build  →  go test ./...
#   + each of the four examples/ run to completion (exit 0)
#   + internal/tensor, internal/ops and tf/... again under -tags noasm (the Go
#     matmul micro-kernel instead of the AVX2 assembly), the benchmark's
#     correctness gate on that build, and an arm64 cross-build
#   + internal/tensor, internal/ops, internal/exec and tf/train again built
#     with GOAMD64=v3 (FMA available: every product must stay rounded)
#   + go test -race ./... over the whole tree, and internal/exec,
#     internal/serving, internal/ops and tf's loop, cond and gradient tests
#     again under -race at -cpu 1,2,4
#   + the chaos/elastic fault-injection suite under -race with a pinned
#     fault schedule (override with CHAOS_SEED=<n>; the seed is printed,
#     and echoed again on failure, so any failing schedule reproduces)
#   + the repo benchmark's short run (its correctness gate) and a vet of bench/
#   + a short -fuzztime smoke run of the fuzz targets (FuzzPredictRequest,
#     FuzzModelVersion, FuzzTensorReadFrom, FuzzRPCFrame; override with
#     FUZZTIME=30s)
set -eu
cd "$(dirname "$0")/.."
exec make ci
