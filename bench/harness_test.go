package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/distributed"
	"repro/internal/tensor"
)

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supportsPercentile(c.n, c.p); got != c.want {
			t.Errorf("supportsPercentile(%d, %g) = %t, want %t", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := percentile(xs, 0.5); got != 499.5 {
		t.Errorf("p50 of 0..999 = %g, want 499.5", got)
	}
	if got := percentile(xs, 0.99); math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %g, want 989.01", got)
	}
	if got := supportedPercentile(xs[:500], 0.99); got != 0 {
		t.Errorf("p99 of 500 samples = %g, want 0 (unsupported)", got)
	}
	if p, _ := tailPercentile(xs); p != 0.99 {
		t.Errorf("tail percentile of 1000 samples is p%g, want p99", 100*p)
	}
	if p, _ := tailPercentile(xs[:300]); p != 0.95 {
		t.Errorf("tail percentile of 300 samples is p%g, want p95", 100*p)
	}
	if p, v := tailPercentile(xs[:50]); p != 0.5 || v != 24.5 {
		t.Errorf("tail percentile of 50 samples is p%g = %g, want p50 = 24.5", 100*p, v)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

func TestSliceAggregation(t *testing.T) {
	if got := median([]float64{5, 1, 100, 3}); got != 4 {
		t.Errorf("median = %g, want 4", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if got := spread([]float64{8, 10, 12}); got != 0.4 {
		t.Errorf("spread = %g, want 0.4", got)
	}
	if highest([]float64{3, 9, 4}) != 9 || lowest([]float64{3, 9, 4}) != 3 || highest(nil) != 0 {
		t.Error("highest/lowest pick the wrong slice")
	}

	// A serving workload's rate is its best slice's, its latency the lowest
	// slice median.
	r := &run{w: &workload{name: "fake"}, slices: []sliceStats{
		{attempted: 10, completed: 10, seconds: 1, latMs: []float64{1, 2, 3}, cpuPerOpMs: 5},
		{attempted: 20, completed: 20, seconds: 1, latMs: []float64{4, 5, 6}, cpuPerOpMs: 3},
	}, setupS: []float64{3, 1, 2}, rssMB: []float64{30, 10, 20}}
	m := r.endToEndMetrics()
	for name, want := range map[string]float64{"ops_per_s": 20, "op_p50_ms": 2, "cpu_ms_per_op": 3, "ok_share": 1, "max_ok_rate": 20, "setup_s": 2, "rss_mb": 20} {
		if m[name] != want {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

func TestMachineSpeedScaling(t *testing.T) {
	// An op is scaled by the median of the refWindow reference runs nearest
	// to it, so one stalled reference run does not move it.
	slow := 2 * refNominalMs
	gaps := []float64{refNominalMs, slow, slow, slow, slow, 100 * slow, slow}
	for _, op := range []int{0, 2, 5} {
		if got := speedAround(gaps, op); got != 0.5 {
			t.Errorf("speed around op %d = %g, want 0.5", op, got)
		}
	}
	if got := trimmedMean([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.1); got != 5 {
		t.Errorf("mean without the highest tenth = %g, want 5", got)
	}
	if trimmedMean(nil, 0.1) != 0 {
		t.Error("trimmed mean of nothing is not 0")
	}

	// A scaled slice times the ops alone — the reference runs between them —
	// and reads each at machine speed 1.
	s := runScaled(slowOp{2 * time.Millisecond}, 200*time.Millisecond, nil, newReference())
	if s.attempted < 20 || s.failed != 0 || len(s.latMs) != s.attempted || len(s.scaledMs) != s.attempted ||
		len(s.scaledCPUMs) != s.attempted || len(s.speed) != s.attempted {
		t.Fatalf("attempted %d failed %d, %d latencies, %d scaled, %d CPU, %d speeds", s.attempted, s.failed,
			len(s.latMs), len(s.scaledMs), len(s.scaledCPUMs), len(s.speed))
	}
	sum := 0.0
	for i, l := range s.latMs {
		sum += l
		if l < 2 || s.speed[i] <= 0 || math.Abs(s.scaledMs[i]-l*s.speed[i]) > 1e-9 {
			t.Fatalf("op %d: %.3f ms at speed %.3f scaled to %.3f ms", i, l, s.speed[i], s.scaledMs[i])
		}
	}
	if math.Abs(s.seconds-sum/1000) > 1e-9 {
		t.Errorf("slice lasted %.4f s, its ops %.4f s", s.seconds, sum/1000)
	}
	r := &run{w: &workload{name: "fake", scaled: true}, slices: []sliceStats{s}}
	if m := r.endToEndMetrics(); m["op_p50_ms"] != median(s.scaledMs) || m["ops_per_s"] != 1000/trimmedMean(s.scaledMs, stallShare) ||
		m["max_ok_rate"] != m["ops_per_s"] || m["ok_share"] != 1 {
		t.Errorf("scaled metrics %v", m)
	}
}

func TestPoissonSchedule(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different arrival %d", i)
		}
		if a[i] < 0 || a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or out of the rung", i, a[i])
		}
	}
	if len(a) < 850 || len(a) > 1150 {
		t.Errorf("%d arrivals in 1 s at 1000/s", len(a))
	}
}

// slowOp is an instance whose every op takes a fixed time.
type slowOp struct{ d time.Duration }

func (s slowOp) op(opCtx) error { time.Sleep(s.d); return nil }
func (s slowOp) close()         {}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	// Three requests due 20 ms apart, each taking 50 ms: an open loop issues
	// them on schedule, so they overlap and each is ~50 ms from its due
	// time; a closed loop would have made the third wait 100 ms.
	due := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond}
	begin := time.Now()
	rs, failed, err := runRung(slowOp{50 * time.Millisecond}, 50, due, 100*time.Millisecond, nil)
	elapsed := time.Since(begin)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 140*time.Millisecond {
		t.Errorf("rung took %v: requests did not overlap", elapsed)
	}
	// The first request is due inside the warm share (10 ms) and is not
	// measured; both others miss the 10 ms limit.
	if rs.sent != 2 || len(rs.latMs) != 2 || rs.ok != 0 || failed != 0 {
		t.Errorf("sent %d completed %d ok %d failed %d, want 2 2 0 0", rs.sent, len(rs.latMs), rs.ok, failed)
	}
	for i, l := range rs.latMs {
		if l < 50 || l > 90 {
			t.Errorf("request %d took %.1f ms from its due time, want ~50", i, l)
		}
		// Latency is from the due time: it contains the generator's
		// lateness.
		if rs.lateMs[i] < 0 || rs.lateMs[i] > l-50+1 {
			t.Errorf("request %d issued %.2f ms late but took %.1f ms", i, rs.lateMs[i], l)
		}
	}
}

func TestMaxOKRate(t *testing.T) {
	rung := func(rate, tail float64, sent, completed, backlog int) rungStats {
		return rungStats{rate: rate, tailMs: tail, sent: sent, latMs: make([]float64, completed), backlog: backlog}
	}
	s := sliceStats{rungs: []rungStats{
		rung(1000, 4, 100, 100, 3),
		rung(2000, 9, 200, 200, 10),
		rung(4000, 12, 400, 400, 10), // over the limit
	}}
	if got := s.maxOKRate(); got != 2000 {
		t.Errorf("max OK rate = %g, want 2000", got)
	}
	s.rungs[1] = rung(2000, 9, 200, 199, 10) // one request lost
	if got := s.maxOKRate(); got != 1000 {
		t.Errorf("max OK rate with a lost request = %g, want 1000", got)
	}
	s.rungs[0] = rung(1000, 4, 100, 100, 500) // queue still growing
	if got := s.maxOKRate(); got != 0 {
		t.Errorf("max OK rate with a backlog = %g, want 0", got)
	}
}

func TestSpanSelfTimeAndAdoption(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Lane: "w0", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Lane: "x", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Lane: "x", Start: 20 * ms, End: 50 * ms},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Lane: "x", Start: 90 * ms, End: 120 * ms}, // clipped to the parent
		{ID: 5, Name: "orphan", Lane: "x", Owner: "w0", Start: 60 * ms, End: 70 * ms},
		{ID: 6, Name: "stranger", Lane: "x", Owner: "w1", Start: 60 * ms, End: 70 * ms},
		{ID: 7, Op: 9, Name: "inner", Lane: "w0", Start: 55 * ms, End: 80 * ms},
	}
	self := selfTimes(spans)
	if self[1] != 50*ms {
		t.Errorf("self time of the parent = %v, want 50ms", self[1])
	}
	if self[2] != 20*ms {
		t.Errorf("self time of a leaf = %v, want its duration", self[2])
	}
	adopt(spans)
	if spans[4].Parent != 7 || spans[4].Op != 9 {
		t.Errorf("orphan adopted by span %d (op %d), want the innermost span 7 (op 9)", spans[4].Parent, spans[4].Op)
	}
	if spans[5].Parent != 0 {
		t.Errorf("span owned by a lane with no spans was adopted by %d", spans[5].Parent)
	}
	if got := selfTimes(spans)[7]; got != 15*ms {
		t.Errorf("self time after adoption = %v, want 15ms", got)
	}
}

func TestChromeTraceFile(t *testing.T) {
	tr := newTracer()
	parent := tr.newID()
	t0 := time.Now()
	tr.add(tr.newID(), parent, 1, "child", "lane-b", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond))
	tr.add(parent, 0, 1, "op", "lane-a", t0, t0.Add(3*time.Millisecond))
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := writeChromeTrace(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Name == "op" && (ev.Dur != 3000 || ev.Args["self_us"].(float64) != 2000) {
				t.Errorf("op event: dur %g self %v, want 3000 and 2000", ev.Dur, ev.Args["self_us"])
			}
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2", complete)
	}
	var nilTracer *tracer
	nilTracer.add(nilTracer.newID(), 0, 0, "x", "y", t0, t0) // tracing off: no-ops
	if nilTracer.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func TestWireSizeCounter(t *testing.T) {
	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	for _, chunk := range []string{"abc", "", "defgh"} {
		if _, err := cw.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if cw.n != 8 || buf.Len() != 8 {
		t.Errorf("counted %d bytes, wrote %d, want 8", cw.n, buf.Len())
	}

	big := tensor.New(tensor.Float32, tensor.Shape{256, 256})
	if got := tensorBytes(big, nil, tensor.New(tensor.Int32, tensor.Shape{10})); got != 256*256*4+40 {
		t.Errorf("tensorBytes = %d", got)
	}
	if got := keyStepID("step 42;/job:ps/task:0/device:CPU:0;/job:worker/task:1/device:CPU:0;w"); got != 42 {
		t.Errorf("keyStepID = %d, want 42", got)
	}
	if got := keyStepID("garbage"); got != 0 {
		t.Errorf("keyStepID of a malformed key = %d, want 0", got)
	}

	msgs := []wireMessage{
		{"RecvTensor", &distributed.RecvTensorReq{Key: "k"}, &distributed.RecvTensorResp{Tensor: big}},
		{"RunGraph", &distributed.RunGraphReq{Handle: "h", StepID: 1, Feeds: []*tensor.Tensor{big}}, &distributed.RunGraphResp{}},
		{"PushGradients", &distributed.PushGradientsReq{Origin: "w", Grads: []distributed.GradientPush{{Name: "v", Dense: big}}},
			&distributed.PushGradientsResp{Round: 1, Applied: true}},
	}
	n, enc, dec, err := encodeInIsolation(msgs)
	if err != nil {
		t.Fatal(err)
	}
	payload := int64(3 * big.ByteSize())
	if n < payload || n > payload+4096 {
		t.Errorf("three messages carrying %d tensor bytes encoded to %d bytes", payload, n)
	}
	if enc <= 0 || dec <= 0 {
		t.Errorf("encode %v decode %v, want both measured", enc, dec)
	}
}

func TestObservedTransport(t *testing.T) {
	cluster := distributed.NewInProcCluster(distributed.ClusterSpec{"ps": {""}})
	rec := &wireRecorder{}
	wrap := newResolverWrap(cluster.Resolver(), "client", rec)
	tr, err := wrap.resolve("/job:ps/task:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunGraph(&distributed.RunGraphReq{Handle: "missing"}); err == nil {
		t.Fatal("RunGraph on an unknown handle succeeded")
	}
	if calls, _ := rec.take(); len(calls) != 0 {
		t.Fatalf("recorded %d calls with observation off", len(calls))
	}
	rec.observe.Store(true)
	if _, err := tr.RunGraph(&distributed.RunGraphReq{Handle: "missing", StepID: 5}); err == nil {
		t.Fatal("RunGraph on an unknown handle succeeded")
	}
	calls, msgs := rec.take()
	if len(calls) != 1 || calls[0].method != "RunGraph" || calls[0].task != "/job:ps/task:0" ||
		calls[0].caller != "client" || calls[0].stepID != 5 || calls[0].err == nil {
		t.Errorf("recorded %+v", calls)
	}
	if !distributed.IsRetryable(calls[0].err) {
		t.Errorf("an unknown handle should count as a retry cause: %v", calls[0].err)
	}
	if len(msgs) != 0 {
		t.Errorf("retained %d messages with retention off", len(msgs))
	}
	again, err := wrap.resolve("/job:ps/task:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.(*observedTransport); !ok {
		t.Errorf("resolver handed out a %T", again)
	}
	wrap.close()
}

func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %g", d.Name, d.Bound)
		}
	}
	if _, err := complete(perLayer, metrics{"no.such_metric": 1}); err == nil {
		t.Error("complete accepted an undeclared metric")
	}
	m, err := complete(endToEnd, metrics{"ops_per_s": 3})
	if err != nil || len(m) != len(endToEnd) || m["ops_per_s"] != 3 || m["setup_s"] != 0 {
		t.Errorf("complete = %v, %v", m, err)
	}
}

// TestManifestInSync keeps BENCHMARK.json at the root of the repository equal
// to what the code declares (`tfbench -manifest`).
func TestManifestInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, declared any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifestJSON(), &declared); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(onDisk)
	b, _ := json.Marshal(declared)
	if !bytes.Equal(a, b) {
		t.Error("BENCHMARK.json differs from `tfbench -manifest`; regenerate it")
	}
}

func TestLossGate(t *testing.T) {
	if err := checkLoss("mlp_local", 2, 2.3, 2.2); err != nil {
		t.Errorf("falling loss on a non-golden seed rejected: %v", err)
	}
	if err := checkLoss("mlp_local", 2, 2.3, 2.3); err == nil {
		t.Error("loss that did not fall accepted")
	}
	if err := checkLoss("mlp_local", 2, 2.3, math.NaN()); err == nil {
		t.Error("NaN loss accepted")
	}
	if err := checkLoss("mlp_local", goldenSeed, 2.3, goldenLoss["mlp_local"]+1e-3); err == nil {
		t.Error("loss 1e-3 off the golden accepted")
	}
	if err := checkLoss("mlp_local", goldenSeed, 2.3, goldenLoss["mlp_local"]+1e-6); err != nil {
		t.Errorf("loss 1e-6 off the golden rejected: %v", err)
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	a, b, c := &env{seed: 1}, &env{seed: 1}, &env{seed: 2}
	if a.rng("x").Int63() != b.rng("x").Int63() {
		t.Error("same seed and purpose gave different streams")
	}
	if a.rng("x").Int63() == c.rng("x").Int63() || a.rng("x").Int63() == a.rng("y").Int63() {
		t.Error("different seed or purpose gave the same stream")
	}
	ids := zipfIDs(a.rng("ids"), 1000, 8192)
	hot := 0
	for _, id := range ids {
		if id < 0 || id >= 8192 {
			t.Fatalf("id %d out of range", id)
		}
		if id < 8 {
			hot++
		}
	}
	if hot < 300 {
		t.Errorf("only %d of 1000 Zipf ids fall on the 8 hottest rows", hot)
	}
}

// TestShortRun exercises the whole benchmark in -short mode: every workload
// brought up, verified, measured for 1 s in interleaved slices, traced, probed
// once and torn down, with every declared metric reported.
func TestShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads (~20 s)")
	}
	e := &env{seed: goldenSeed, procs: 2, tmp: t.TempDir(), short: true}
	outDir := t.TempDir()
	runs, err := runAll(e, time.Second, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("%d workloads ran, want 6", len(runs))
	}
	for _, r := range runs {
		if !r.correct() {
			t.Errorf("%s: not correct: %v", r.w.name, r.errs)
		}
		e2e := mustComplete(endToEnd, r.endToEndMetrics())
		for _, d := range endToEnd {
			if v := e2e[d.Name]; !(v > 0) && !raceEnabled {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", r.w.name, d.Name, v)
			}
		}
		layer := mustComplete(perLayer, r.layerMetrics())
		if (layer["driver.samples"] == 0 && !raceEnabled) || layer["tf.build_ms"] == 0 {
			t.Errorf("%s: per-layer metrics look empty: %v", r.w.name, layer)
		}
		if layer["driver.goroutines_leaked"] != 0 {
			t.Errorf("%s: %g goroutines leaked", r.w.name, layer["driver.goroutines_leaked"])
		}
		if _, failed := r.counts(); failed != 0 {
			t.Errorf("%s: %d ops failed", r.w.name, failed)
		}
		data, err := os.ReadFile(filepath.Join(outDir, "trace-"+r.w.name+".json"))
		if err != nil {
			t.Errorf("%s: %v", r.w.name, err)
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("%s: trace file: %v", r.w.name, err)
		}
	}
}

// TestLossFallsOnOtherSeeds runs the training correctness gate on seeds other
// than the golden one (the PS workloads on the in-process cluster, which the
// TCP run must match anyway): the loss at step 50 must be below the step-0
// loss whatever the seed draws.
func TestLossFallsOnOtherSeeds(t *testing.T) {
	for seed := int64(2); seed <= 9; seed++ {
		e := &env{seed: seed, procs: 2, tmp: t.TempDir()}
		for _, s := range []*localSpec{
			{name: "mlp_local", build: buildMLP},
			{name: "while_local", build: buildWhile},
		} {
			inst, _, err := s.bringUp(e)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.verify(e, inst); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			lt := inst.(*localTrainer)
			t.Logf("seed %d %s: loss %.4g -> %.4g", seed, s.name, lt.loss0, lt.last)
			inst.close()
		}
		for _, s := range []*psSpec{
			{name: "ps_dense_tcp", model: denseModel},
			{name: "ps_sparse_tcp", model: sparseModel},
		} {
			tr, _, err := s.bringUp(e, newInProcCluster())
			if err != nil {
				t.Fatal(err)
			}
			for tr.n <= lossCheckStep {
				if err := tr.op(opCtx{}); err != nil {
					t.Fatal(err)
				}
			}
			for wi := range tr.last {
				if err := checkLoss(s.name, seed, tr.loss0[wi], tr.last[wi]); err != nil {
					t.Errorf("seed %d worker %d: %v", seed, wi, err)
				}
			}
			t.Logf("seed %d %s: loss %.4g -> %.4g", seed, s.name, tr.loss0[0], tr.last[0])
			tr.close()
		}
	}
}
