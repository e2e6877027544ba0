package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
	"repro/tf"
)

// Layer probes shared by the workloads. Each calls a layer's public
// functions directly, with the workload's own graphs, shapes and payloads,
// and writes per-layer metrics into m.

// probeInput is what the traced run hands a workload's layer probes.
type probeInput struct {
	budget   time.Duration // total time the probes may take
	untraced sliceStats    // the untraced pass of this run, pooled
	spans    []span        // the traced pass, orphans adopted
}

// sample calls fn for about budget (at least min times; exactly once with no
// budget, the -short rule) and returns each call's duration in microseconds,
// ascending.
func sample(budget time.Duration, min int, fn func() error) ([]float64, error) {
	if budget <= 0 {
		min = 1
	}
	var us []float64
	deadline := time.Now().Add(budget)
	for len(us) < min || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		us = append(us, usec(time.Since(t0)))
	}
	sort.Float64s(us)
	return us, nil
}

// minSamples is the sample floor of a probe that loops by hand: n, or 1 with
// no budget.
func minSamples(budget time.Duration, n int) int {
	if budget <= 0 {
		return 1
	}
	return n
}

// p50of samples fn and returns its median duration in microseconds.
func p50of(budget time.Duration, min int, fn func() error) (float64, error) {
	us, err := sample(budget, min, fn)
	if err != nil {
		return 0, err
	}
	return percentile(us, 0.5), nil
}

// sortedFeeds orders a feed map the way core.Session.Run does, so a probe
// reaches the executable the session already compiled.
func sortedFeeds(feeds map[graph.Endpoint]*tensor.Tensor) ([]graph.Endpoint, []*tensor.Tensor) {
	eps := make([]graph.Endpoint, 0, len(feeds))
	for ep := range feeds {
		eps = append(eps, ep)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].String() < eps[j].String() })
	vals := make([]*tensor.Tensor, len(eps))
	for i, ep := range eps {
		vals[i] = feeds[ep]
	}
	return eps, vals
}

// execProbe measures one step definition at the exec and core layers:
// Executable.Run alone, and core.Session.Run around it.
func execProbe(cs *core.Session, feeds map[graph.Endpoint]*tensor.Tensor, fetches []graph.Endpoint,
	targets []*graph.Node, budget time.Duration, m metrics) error {
	eps, vals := sortedFeeds(feeds)
	ex, err := cs.Executable(eps, fetches, targets)
	if err != nil {
		return err
	}
	rendez := rendezvous.NewLocal()
	stepID := int64(1) << 40 // clear of the session's own step counter
	run := func() error {
		stepID++
		_, err := ex.Run(exec.RunParams{FeedValues: vals, Resources: cs.Device().Resources(),
			Rendezvous: rendez, StepID: stepID})
		return err
	}
	// The two are sampled alternately, so that drift of the machine during
	// the probe cancels in their difference.
	var execUs, coreUs []float64
	deadline := time.Now().Add(budget)
	for len(execUs) < minSamples(budget, 20) || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := run(); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := cs.Run(feeds, fetches, targets); err != nil {
			return err
		}
		execUs = append(execUs, usec(t1.Sub(t0)))
		coreUs = append(coreUs, usec(time.Since(t1)))
	}
	execP50, coreP50 := median(execUs), median(coreUs)
	var before, after runtime.MemStats
	allocRuns := float64(minSamples(budget, 20))
	runtime.ReadMemStats(&before)
	for i := 0.0; i < allocRuns; i++ {
		if err := run(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["exec.run_p50_us"] = execP50
	m["exec.nodes_per_step"] = float64(ex.NumNodes())
	m["exec.planned_buffers"] = float64(ex.PlannedBuffers())
	m["exec.allocs_per_step"] = float64(after.Mallocs-before.Mallocs) / allocRuns
	m["exec.alloc_kb_per_step"] = float64(after.TotalAlloc-before.TotalAlloc) / allocRuns / 1024
	m["core.run_overhead_us"] = coreP50 - execP50
	m["core.cached_subgraphs"] = float64(cs.CachedSubgraphs())
	return nil
}

// optimizeProbe runs the compile-time pass pipeline over a freshly built,
// never-run graph and reports the step's size before and after; it returns
// the fetches remapped onto the optimized graph.
func optimizeProbe(g *graph.Graph, feeds, fetches []graph.Endpoint, targets []*graph.Node, m metrics) ([]graph.Endpoint, error) {
	set, err := graph.Prune(g, feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	m["graph.nodes_before"] = float64(len(set))
	t0 := time.Now()
	res, err := graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{}).Run(g)
	if err != nil {
		return nil, err
	}
	m["graph.optimize_ms"] = since(t0)
	remapped := make([]graph.Endpoint, len(fetches))
	for i, f := range fetches {
		remapped[i] = graph.Remap(res.Replaced, f)
	}
	if set, err = graph.Prune(g, feeds, remapped, targets); err != nil {
		return nil, err
	}
	m["graph.nodes_after"] = float64(len(set))
	return remapped, nil
}

// graphDefProbe times GraphDef serialization of the graphs a workload
// ships or stores, adding to the graph.* totals.
func graphDefProbe(g *graph.Graph, m metrics) error {
	t0 := time.Now()
	data, err := g.Marshal()
	if err != nil {
		return err
	}
	m["graph.marshal_ms"] += since(t0)
	m["graph.def_bytes"] += float64(len(data))
	t0 = time.Now()
	if _, err := graph.Unmarshal(data); err != nil {
		return err
	}
	m["graph.unmarshal_ms"] += since(t0)
	return nil
}

// compileProbe times exec.Compile of one step, adding to exec.compile_ms.
func compileProbe(g *graph.Graph, feeds, fetches []graph.Endpoint, targets []*graph.Node, m metrics) error {
	t0 := time.Now()
	if _, err := exec.Compile(g, feeds, fetches, targets, "CPU"); err != nil {
		return err
	}
	m["exec.compile_ms"] += since(t0)
	return nil
}

// matmulCall is one matrix product of a step: op(a)[m,k] · op(b)[k,n], run
// times times per step, through tensor.FusedMatMulBias when the step's
// graph fuses the bias (and ReLU) into it and tensor.MatMul otherwise.
type matmulCall struct {
	m, k, n    int
	ta, tb     bool
	bias, relu bool
	times      int
}

// kernelProbe times the step's matrix products at their own shapes.
func kernelProbe(calls []matmulCall, budget time.Duration, m metrics) error {
	rng := tensor.NewRNG(1)
	var flops, kernelUs float64
	for _, c := range calls {
		aShape, bShape := tensor.Shape{c.m, c.k}, tensor.Shape{c.k, c.n}
		if c.ta {
			aShape = tensor.Shape{c.k, c.m}
		}
		if c.tb {
			bShape = tensor.Shape{c.n, c.k}
		}
		a := rng.Uniform(tensor.Float32, aShape, -1, 1)
		b := rng.Uniform(tensor.Float32, bShape, -1, 1)
		var bias *tensor.Tensor
		if c.bias {
			bias = rng.Uniform(tensor.Float32, tensor.Shape{c.n}, -1, 1)
		}
		p50, err := p50of(budget/time.Duration(len(calls)), 20, func() error {
			if bias != nil {
				_, err := tensor.FusedMatMulBias(nil, a, b, bias, c.ta, c.tb, c.relu)
				return err
			}
			_, err := tensor.MatMul(a, b, c.ta, c.tb)
			return err
		})
		if err != nil {
			return err
		}
		kernelUs += p50 * float64(c.times)
		flops += 2 * float64(c.m) * float64(c.k) * float64(c.n) * float64(c.times)
	}
	m["tensor.flops_per_step"] = flops
	m["tensor.kernel_ms_per_step"] = kernelUs / 1000
	if kernelUs > 0 {
		m["tensor.matmul_gflops"] = flops / kernelUs / 1000
	}
	return nil
}

// largest returns the tensor with the most bytes.
func largest(ts map[string]*tensor.Tensor) *tensor.Tensor {
	var best *tensor.Tensor
	for _, t := range ts {
		if best == nil || t.ByteSize() > best.ByteSize() {
			best = t
		}
	}
	return best
}

// serializeProbe measures the tensor layer's two byte formats on t: the
// stream format (WriteTo / ReadFrom, what checkpoints hold) and gob (what
// the TCP transport puts on the wire).
func serializeProbe(t *tensor.Tensor, budget time.Duration, m metrics) error {
	if t == nil {
		return nil
	}
	mbPerS := func(us float64) float64 {
		if us == 0 {
			return 0
		}
		return float64(t.ByteSize()) / us // bytes/µs = MB/s
	}
	var buf bytes.Buffer
	p50, err := p50of(budget/4, 10, func() error {
		buf.Reset()
		_, err := t.WriteTo(&buf)
		return err
	})
	if err != nil {
		return err
	}
	m["tensor.write_mb_s"] = mbPerS(p50)
	stream := append([]byte(nil), buf.Bytes()...)
	if p50, err = p50of(budget/4, 10, func() error {
		_, err := tensor.ReadFrom(bytes.NewReader(stream))
		return err
	}); err != nil {
		return err
	}
	m["tensor.read_mb_s"] = mbPerS(p50)

	// One persistent encoder/decoder pair, as on a live connection.
	var wire bytes.Buffer
	enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
	var encUs, decUs []float64
	deadline := time.Now().Add(budget / 2)
	for len(encUs) < minSamples(budget, 10) || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := enc.Encode(t); err != nil {
			return err
		}
		t1 := time.Now()
		var out tensor.Tensor
		if err := dec.Decode(&out); err != nil {
			return err
		}
		encUs = append(encUs, usec(t1.Sub(t0)))
		decUs = append(decUs, usec(time.Since(t1)))
	}
	m["tensor.gob_encode_mb_s"] = mbPerS(median(encUs))
	m["tensor.gob_decode_mb_s"] = mbPerS(median(decUs))
	return nil
}

// checkpointProbe writes and reads the workload's variables as one
// checkpoint file.
func checkpointProbe(e *env, vars map[string]*tensor.Tensor, m metrics) error {
	var size float64
	for _, t := range vars {
		size += float64(t.ByteSize())
	}
	if size == 0 {
		return nil
	}
	path := filepath.Join(e.tmp, "probe.ckpt")
	var writeUs, readUs []float64
	for i := 0; i < 5 && (i == 0 || !e.short); i++ {
		t0 := time.Now()
		if err := checkpoint.Write(path, vars); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := checkpoint.Read(path); err != nil {
			return err
		}
		writeUs = append(writeUs, usec(t1.Sub(t0)))
		readUs = append(readUs, usec(time.Since(t1)))
	}
	m["checkpoint.write_mb_s"] = size / median(writeUs)
	m["checkpoint.read_mb_s"] = size / median(readUs)
	return nil
}

// nullDispatchProbe measures the executor's per-node cost on chains of
// Identity nodes, which do no work of their own: once as a plain graph (the
// fast path) and once with the same chain as the body of a tf.While (the
// frame-aware path every node of a graph pays once it holds a loop).
func nullDispatchProbe(budget time.Duration, m metrics) error {
	const chains, depth = 16, 64
	plain := tf.NewGraph()
	var lasts []tf.Output
	for c := 0; c < chains; c++ {
		cur := plain.Const(float32(c))
		for d := 0; d < depth; d++ {
			cur = plain.Identity(cur)
		}
		lasts = append(lasts, cur)
	}
	ns, err := dispatchNs(plain, plain.AddN(lasts...), chains*(depth+1)+1, budget/2)
	if err != nil {
		return err
	}
	m["exec.null_dispatch_ns_per_node"] = ns

	const iters = 16
	loop := tf.NewGraph()
	outs := loop.While(
		[]tf.Output{loop.Const(int32(0)), loop.Const(float32(1))}, nil,
		func(vars, _ []tf.Output) tf.Output { return loop.Less(vars[0], loop.Const(int32(iters))) },
		func(vars, _ []tf.Output) []tf.Output {
			cur := vars[1]
			for d := 0; d < depth; d++ {
				cur = loop.Identity(cur)
			}
			return []tf.Output{loop.Add(vars[0], loop.Const(int32(1))), cur}
		},
	)
	if ns, err = dispatchNs(loop, outs[1], iters*depth, budget/2); err != nil {
		return err
	}
	m["exec.null_dispatch_frame_ns_per_node"] = ns
	return nil
}

// dispatchNs returns the median time to fetch out, per counted node, in ns.
func dispatchNs(g *tf.Graph, out tf.Output, nodes int, budget time.Duration) (float64, error) {
	sess, err := tf.NewSession(g, tf.SessionOptions{DisableOptimizations: true})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	p50, err := p50of(budget, 20, func() error {
		_, err := sess.Fetch1(nil, out)
		return err
	})
	if err != nil {
		return 0, err
	}
	return p50 * 1000 / float64(nodes), nil
}

// rendezvousProbe times one Local.Send → Recv pair carrying t.
func rendezvousProbe(t *tensor.Tensor, budget time.Duration, m metrics) error {
	r := rendezvous.NewLocal()
	i := 0
	p50, err := p50of(budget, 1000, func() error {
		i++
		key := fmt.Sprintf("step %d;/job:ps/task:0/device:CPU:0;/job:worker/task:0/device:CPU:0;edge", i)
		if err := r.Send(key, ops.Value{Tensor: t}); err != nil {
			return err
		}
		_, err := r.Recv(key, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["rendezvous.send_recv_ns"] = p50 * 1000
	return nil
}

// unwrapFeeds converts a tf-level feed map to endpoints.
func unwrapFeeds(feeds map[tf.Output]*tf.Tensor) map[graph.Endpoint]*tensor.Tensor {
	out := make(map[graph.Endpoint]*tensor.Tensor, len(feeds))
	for o, t := range feeds {
		out[o.Unwrap()] = t
	}
	return out
}

// layers is the per-layer probe set of a single-machine training workload.
func (s *localSpec) layers(e *env, inst instance, in probeInput, m metrics) error {
	t := inst.(*localTrainer)
	share := in.budget / 10

	us, err := p50of(2*share, 20, func() error { return t.op(opCtx{}) })
	if err != nil {
		return err
	}
	m["tf.session_run_p50_us"] = us

	feeds := unwrapFeeds(t.model.pool[0])
	fetches := []graph.Endpoint{t.model.loss.Unwrap()}
	targets := []*graph.Node{t.model.train.Node()}
	if err := execProbe(t.sess.Core(), feeds, fetches, targets, 3*share, m); err != nil {
		return err
	}

	// Compile-time layers, on a fresh copy of the graph that no session
	// has touched.
	fresh, err := s.build(e)
	if err != nil {
		return err
	}
	freshFeeds, _ := sortedFeeds(unwrapFeeds(fresh.pool[0]))
	freshTargets := []*graph.Node{fresh.train.Node()}
	// The GraphDef is taken of the graph as built: once the fusion pass has
	// run over a training graph, Marshal's output no longer Unmarshals (the
	// fused-away Relu stays in the node list with no inputs).
	if err := graphDefProbe(fresh.g.Raw(), m); err != nil {
		return err
	}
	remapped, err := optimizeProbe(fresh.g.Raw(), freshFeeds, []graph.Endpoint{fresh.loss.Unwrap()}, freshTargets, m)
	if err != nil {
		return err
	}
	if err := compileProbe(fresh.g.Raw(), freshFeeds, remapped, freshTargets, m); err != nil {
		return err
	}

	if err := kernelProbe(s.kernels, 2*share, m); err != nil {
		return err
	}
	vars := t.sess.Core().Device().Resources().SnapshotVariables()
	if err := serializeProbe(largest(vars), share, m); err != nil {
		return err
	}
	if err := checkpointProbe(e, vars, m); err != nil {
		return err
	}
	return nullDispatchProbe(share, m)
}
