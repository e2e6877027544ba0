GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet build test examples test-noasm test-v3 cross tanh-sweep ew-sweep race race-hot chaos bench bench-smoke bench-build fuzz-smoke golden loc

# Tier-1 gate: everything must be gofmt-clean, vet, build, and test
# green, the whole tree must pass again under the race detector (and the
# executor and serving tier at three processor counts), the chaos
# fault-injection suite must pass under a pinned fault schedule, the repo
# benchmark in bench/ (a module of its own, which the root `./...` never
# reaches) must vet against this tree and pass its correctness gate on a short
# run of all six workloads, and the parsers of untrusted bytes (predict
# bodies, version names, tensor streams, RPC frames, GraphDefs, checkpoints)
# must survive a short fuzz run, and no runtime file may import encoding/gob
# (vet). The matmul micro-kernel, the float32 Momentum and Tanh loops and the
# float32 element-wise loops have assembly and Go implementations, so the
# packages that can tell are tested again on the Go ones (test-noasm), the
# tree must still build for an architecture that has no assembly, with no
# fused multiply-add in any of them (cross), the tanh kernel must match
# math.Tanh on every float32 input (tanh-sweep), and Relu, ReluGrad's mask and
# the quotient by a power of two must match their Go loops on every float32
# input too (ew-sweep). The
# element-wise loops round every product explicitly, and the packages whose
# bits depend on that run again built for AVX2+FMA machines (test-v3). The
# four examples are run to completion, not just compiled (examples).
ci: fmt vet build test examples test-noasm test-v3 cross tanh-sweep ew-sweep race race-hot chaos bench-smoke bench-build fuzz-smoke

# Fail if any tracked Go file is not gofmt-formatted.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Besides go vet: no runtime file imports encoding/gob. Every byte format the
# runtime writes (RPC frames, GraphDefs, checkpoints) goes through the one
# bounded codec of internal/wire; only the benchmark's gob mirror in bench/,
# a module of its own, still uses gob. And no kernel calls tensor.New: a
# kernel creates its outputs through ctx.Alloc, the one allocation route,
# which the executor serves from the buffers it recycles (ops/behavior.go).
# And only the Save kernel (internal/ops/io.go) calls checkpoint.Write: single-
# process and replicated training both checkpoint through the graph's Save op,
# so a change to the file format (ROADMAP item 6's CRC) lands in one writer.
# And no runtime file of internal/serving makes a json.NewDecoder: a predict
# body is read once, by the scanner of internal/serving/scan.go. And only the
# PushGradients kernel (internal/distributed/push.go) calls .PushGradients(:
# a sync round's gradients leave the worker task that computed them, never
# the client. And only Worker.serve (internal/distributed/worker.go) calls
# .agg.push(: a push reaches the aggregator only after the task has decoded
# it, over TCP or in-process, so the round owns every tensor it keeps.
vet:
	$(GO) vet ./...
	@gob="$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs grep -l '"encoding/gob"')"; \
	if [ -n "$$gob" ]; then echo "encoding/gob imported outside bench/:"; echo "$$gob"; exit 1; fi
	@news="$$(find ./internal/ops -name '*.go' ! -name '*_test.go' | xargs grep -n 'tensor\.New(')"; \
	if [ -n "$$news" ]; then echo "a kernel allocates outside ctx.Alloc:"; echo "$$news"; exit 1; fi
	@writers="$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path './internal/ops/io.go' | xargs grep -n 'checkpoint\.Write\b')"; \
	if [ -n "$$writers" ]; then echo "checkpoint.Write called outside the Save kernel:"; echo "$$writers"; exit 1; fi
	@decoders="$$(find ./internal/serving -name '*.go' ! -name '*_test.go' | xargs grep -n 'json\.NewDecoder')"; \
	if [ -n "$$decoders" ]; then echo "json.NewDecoder on the serving request path:"; echo "$$decoders"; exit 1; fi
	@pushers="$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path './internal/distributed/push.go' | xargs grep -n '\.PushGradients(')"; \
	if [ -n "$$pushers" ]; then echo "PushGradients called outside the push kernel:"; echo "$$pushers"; exit 1; fi
	@aggs="$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path './internal/distributed/worker.go' | xargs grep -n '\.agg\.push(')"; \
	if [ -n "$$aggs" ]; then echo "a push reaches the aggregator without being decoded:"; echo "$$aggs"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Each example trains a real model through the public API (the cluster one
# over TCP loopback, with a worker and a PS restart) and exits non-zero on the
# first error it meets; ~5 s for the four, no network.
examples:
	@for e in quickstart imageclass langmodel replicated; do \
		$(GO) run ./examples/$$e >/dev/null || { echo "examples/$$e FAILED"; exit 1; }; \
	done

# The portable build: `-tags noasm` leaves out matmul_amd64.{go,s},
# momentum_amd64.{go,s}, tanh_amd64.{go,s} and elementwise_amd64.{go,s}, so
# every product runs on the Go micro-kernel and every Momentum step, Tanh,
# Add, Sub, Mul, Div, Relu, ReluGrad and column sum on the Go loop, as they do
# on a CPU without AVX2 and on every other architecture. The kernel tests
# (bit-for-bit against the written
# contract, and the digest committed in internal/tensor/testdata) and the
# benchmark's correctness gate (golden losses, TCP ≡ in-proc) must hold there
# exactly as they do with the assembly.
test-noasm:
	$(GO) test -tags noasm -count=1 ./internal/tensor ./internal/ops ./tf/...
	GOFLAGS=-tags=noasm bash bench/run.sh -short >/dev/null

# GOAMD64=v3 lets the compiler use FMA. A product that reaches an addition
# unrounded (`a*b + c` with no conversion between) may then be fused, which
# skips the product's rounding and moves the bits every golden depends on; the
# typed loops and the fused Momentum step convert each product explicitly,
# and these packages' bit-for-bit tests must hold on that build too. (go1.24
# fuses such expressions on arm64 but not yet on amd64: EXPERIMENTS "PR 25".)
test-v3:
	GOAMD64=v3 $(GO) test -count=1 ./internal/tensor ./internal/ops ./internal/exec ./tf/train

# What catches a file that lost its build constraint: the assembly and its Go
# declarations must not reach a non-amd64 build. It also guards the rule that
# no product skips its rounding, for all three implementations of the tensor
# kernels (Go, AVX2, AVX-512), the element-wise ones of elementwise_amd64.s
# included: the package is compiled for arm64, which fuses
# `a*b + c` into one instruction unless the product is converted explicitly,
# and for amd64 at the default level and at GOAMD64=v3, where the compiler may
# use FMA and the assembly is built, and any FMADD/FMSUB/FNMADD/FNMSUB
# (VFMADD… on amd64) in the compiler's and assembler's listing whose source
# line is in the package's non-test files, .s files included, fails the
# target; so does a raw BYTE/WORD/LONG/QUAD, which could hide one. (The
# listing rather than go tool objdump, which decodes no VEX or EVEX
# instruction and so sees none of the amd64 vector code.) Go's own math
# package fuses on arm64 too; that is out of reach.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	@d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	for target in arm64:v1 amd64:v1 amd64:v3; do \
		GOARCH=$${target%:*} GOAMD64=$${target#*:} $(GO) build -gcflags=-S -asmflags=-S -o /dev/null ./internal/tensor \
			>"$$d/listing" 2>&1 || { cat "$$d/listing"; exit 1; }; \
		fused="$$(awk -v dir="($(CURDIR)/internal/tensor/" \
			'index($$0, dir) && /\t(V?FN?M(ADD|SUB)[0-9A-Z]*|BYTE|WORD|LONG|QUAD)\t/' "$$d/listing")"; \
		if [ -n "$$fused" ]; then echo "fused multiply-add on $$target in internal/tensor:"; echo "$$fused"; exit 1; fi; \
	done

# Every float32 bit pattern through the assembly tanh kernel, if the CPU can
# run it, bit for bit against float32(math.Tanh(float64(x))), split over
# GOMAXPROCS (~20 s on two cores). The kernel repeats math.Exp's unfused
# steps, so on an FMA CPU this is the proof that math.Exp's fused path rounds
# no float32 tanh differently, and what fails first on a toolchain whose
# math.Exp or math.Tanh changes; tier-1 runs a strided sweep of the same
# patterns.
tanh-sweep:
	$(GO) test -count=1 -run '^TestTanhKernelsMatchMathTanh$$' ./internal/tensor -tanh-sweep

# Every float32 bit pattern through the installed Relu and ReluGrad loops (the
# AVX2 ones where the CPU has them), bit for bit against the Go loops, and
# through Div by 2, 0.5 and 2⁻¹²⁶, bit for bit against the plain quotient: the
# proof that a product by an exact reciprocal is the quotient on every input
# the shard's mean can meet (~26 s on two cores). Tier-1 runs a strided sweep.
ew-sweep:
	$(GO) test -count=1 -run '^TestElementwiseKernelsSweep$$' ./internal/tensor -ew-sweep

race:
	$(GO) test -race -count=1 ./...

# What full -race does not give: the executor and the serving tier at three
# processor counts. Which goroutine picks up a ready node — and so how
# deliveries into one iteration, and iterations of a loop, interleave —
# depends on how many can run at once, and the batcher's slot count is
# GOMAXPROCS itself. The matmul tile path shards its rows by the same count
# and hands pooled scratch between callers. internal/ops is here for its
# variables: whether a step's in-place write meets a tensor another step is
# still reading is a matter of which steps overlap. The tf loop, cond and
# gradient tests run real autodiff loop graphs, whose recycled buffers pass
# from the worker that freed them to the one that allocates next, and the
# two variable tests hold fetched and fed tensors beside that reuse. Every
# local and distributed step looks its plan up in graph.Steps, under one lock
# that also guards the last-definition fast path, so the local session and the
# cache's own tests run here too. A sync round hands gradient buffers along
# twice: a worker's step buffer to the push goroutines that send it and back
# to the step's free list, and a shard's spare buffer to the read loop that
# decodes a push into it and on to the round that sums in it; the push,
# aggregator and sync-training tests run those hand-offs at three processor
# counts. Every in-process call now decodes its request and its reply from
# the sender's memory, which the transport conformance script runs on both
# transports beside the TCP server's concurrent handlers. A successful step
# ends with no cleanup round, so it can return while a peer's RecvTensor
# handler is still returning; the no-AbortStep and dead-value tests check
# that nothing is left behind on either transport. A restarted task's
# stale handles race the new task's registrations from other masters; the
# stale-handle test runs that on both transports.
race-hot:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/exec/... ./internal/serving/... ./internal/ops ./internal/core
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Steps' ./internal/graph
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'While|Cond|Grad|FetchedUpdateIsStable|FedTensorReusedAfterAssign|HandedOutValuesAreNeverRewritten|LeasedUpdatesMatchCopyingUpdates|SessionCloseReleasesExecutables' ./tf
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'ConcurrentCallers|ParallelMatchesSerial' ./internal/tensor
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'AggregatorRound|AbortedPush|SyncRoundAllocated|PSApplySync|ShardApply|TransportConformance|SuccessfulStep|DeadValue|StaleHandle' ./internal/distributed ./tf/train

# Chaos fault-injection suite under the race detector with a
# PINNED fault schedule: every drop/delay/duplicate/partition decision
# derives from CHAOS_SEED, so a failure reproduces exactly with the
# seed the failing test logs (rerun as `CHAOS_SEED=<n> make chaos`).
# Covers kill-and-recover under faults, a PS restart that restores its
# optimizer slots from its checkpoint, one-way partitions vs backup
# workers, duplicate-delivery idempotence, and dial-backoff gating — plus
# tf/train's sync and PS-apply tests, so the shards' round-tagged
# aggregator runs under the race detector beneath the trainer that drives
# it.
CHAOS_SEED ?= 20260808
chaos:
	@echo "chaos suite: CHAOS_SEED=$(CHAOS_SEED)"
	@CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'Chaos|PSRestart|Partition|Duplicate|DialBackoff|PushGradients|ReplicatedSync|PSApply|ShardApply|SparsePush' \
		./internal/distributed/ ./tf/train/ \
		|| { echo "chaos suite FAILED — reproduce with: CHAOS_SEED=$(CHAOS_SEED) make chaos"; exit 1; }

# Native-fuzz smoke gate over the parsers of untrusted input: the serving
# tier's (predict request bodies, model version names), the tensor stream
# decoder inside every format below, the TCP transport's frame reader with
# every method's body decoder, GraphDefs (a worker decodes one off a socket)
# and checkpoint files; and a convolution or pool whose window attributes
# and fed input shape are fuzzed, decoded from a GraphDef and run, which must
# give an error or an output of Window.OutShape's shape, never a panic. Seeds
# live in each package's testdata/fuzz/ or its f.Add calls; raise FUZZTIME
# for a real hunt.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/serving -run '^$$' -fuzz FuzzPredictRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serving -run '^$$' -fuzz FuzzModelVersion -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzTensorReadFrom -fuzztime $(FUZZTIME)
	$(GO) test ./internal/distributed -run '^$$' -fuzz FuzzRPCFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzGraphDef -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzCheckpointRead -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ops -run '^$$' -fuzz FuzzWindow -fuzztime $(FUZZTIME)

# Refresh the committed golden snapshots (tf/testdata/optimized_graph.golden,
# tf/testdata/frozen_graph.golden and
# tf/train/testdata/replica_placement.golden). Run after deliberately
# changing a pass, the freeze/export path, or where a replica's nodes are
# placed; the golden tests fail on accidental drift.
golden:
	$(GO) test ./tf ./tf/train -run Golden -update -count=1

# The repo benchmark, short: all six workloads of BENCHMARK.json for a few
# seconds each over real TCP/HTTP. The numbers go to stdout as JSON; what
# gates CI is the harness's correctness check in the same run (golden losses,
# TCP ≡ in-proc, value-checked responses). Full runs: see bench/README.md.
bench bench-smoke:
	bash bench/run.sh -short

# bench/ is its own module (`replace repro => ../`): vet type-checks the
# harness and its tests against this tree, so an API change in
# internal/distributed or tf/train cannot break the benchmark silently.
bench-build:
	cd bench && $(GO) vet ./...

# Non-test Go lines per package (the unit CHANGES.md's line counts use).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2
