package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/tf"
)

// retainRounds is how many rounds of a traced pass keep their messages for
// the isolated encoding measurement (a dense round is ~2.4 MB of tensors).
const retainRounds = 4

// psTrace is what a traced pass observed on the cluster's transports.
type psTrace struct {
	startRound int
	rounds     int
	calls      []wireCall
	messages   []wireMessage // of the first retainRounds rounds
}

func (t *psTrainer) beginTrace() {
	t.trace = &psTrace{startRound: t.n}
	t.cluster.rec.take()
	t.cluster.rec.retain.Store(true)
	t.cluster.rec.observe.Store(true)
}

func (t *psTrainer) endTrace(tr *tracer) {
	rec := t.cluster.rec
	rec.observe.Store(false)
	rec.retain.Store(false)
	t.trace.rounds = t.n - t.trace.startRound
	t.trace.calls, t.trace.messages = rec.take()

	// A call belongs to the TrainStep of the worker it was made for: the
	// pusher, the worker task called or calling, or — for a call between
	// the client and a PS task — the worker whose step carries the same ID.
	stepOwner := map[int64]string{}
	for _, c := range t.trace.calls {
		if c.stepID != 0 && strings.HasPrefix(c.task, "/job:worker/") {
			stepOwner[c.stepID] = c.task
		}
	}
	for _, c := range t.trace.calls {
		owner := c.origin
		switch {
		case owner != "":
		case strings.HasPrefix(c.task, "/job:worker/"):
			owner = c.task
		case strings.HasPrefix(c.caller, "/job:worker/"):
			owner = c.caller
		default:
			owner = stepOwner[c.stepID]
		}
		tr.addOrphan(fmt.Sprintf("%s ← %s", c.method, c.caller), c.task, owner, c.start, c.end)
	}
}

// layers is the per-layer probe set of a parameter-server workload.
func (s *psSpec) layers(e *env, inst instance, in probeInput, m metrics) error {
	t := inst.(*psTrainer)
	share := in.budget / 10

	// The same workload with no wire under it.
	inprocUs, err := p50of(2*share, 10, func() error { return t.inproc.op(opCtx{}) })
	if err != nil {
		return err
	}
	tcpMs := percentile(sortedCopy(in.untraced.latMs), 0.5)
	m["distributed.inproc_op_p50_ms"] = inprocUs / 1000
	if tcpMs > 0 {
		m["distributed.wire_share"] = 1 - inprocUs/1000/tcpMs
	}

	if err := s.wireMetrics(t, m); err != nil {
		return err
	}
	if err := s.pushApplyProbe(t, share, m); err != nil {
		return err
	}
	trainShares(in.spans, m)

	saveUs, err := p50of(share/10, 3, t.r.SaveNow)
	if err != nil {
		return err
	}
	m["train.save_ms"] = saveUs / 1000

	// The largest shard's variables as one checkpoint, and its largest
	// parameter through both byte formats.
	var shard map[string]*tensor.Tensor
	for _, w := range t.cluster.shards {
		if vars := w.Device().Resources().SnapshotVariables(); shard == nil || totalBytes(vars) > totalBytes(shard) {
			shard = vars
		}
	}
	if err := checkpointProbe(e, shard, m); err != nil {
		return err
	}
	if err := serializeProbe(largest(shard), 2*share, m); err != nil {
		return err
	}
	if err := rendezvousProbe(largest(shard), share/10, m); err != nil {
		return err
	}
	if err := kernelProbe(s.kernels, share, m); err != nil {
		return err
	}
	return s.compileTimeProbe(e, t.cluster.spec, m)
}

func totalBytes(ts map[string]*tensor.Tensor) int {
	n := 0
	for _, t := range ts {
		n += t.ByteSize()
	}
	return n
}

// wireMetrics turns the traced pass's observed calls into per-round counts,
// latencies and payloads, and measures the retained rounds' messages through
// gob on one goroutine, away from the run.
func (s *psSpec) wireMetrics(t *psTrainer, m metrics) error {
	tr := t.trace
	if tr == nil || tr.rounds == 0 {
		return fmt.Errorf("%s: no traced rounds to account", s.name)
	}
	rounds := float64(tr.rounds)
	for _, method := range wireMethods {
		var lat []float64
		var payload float64
		for _, c := range tr.calls {
			if c.method != method {
				continue
			}
			lat = append(lat, usec(c.end.Sub(c.start)))
			payload += float64(c.payload)
		}
		m["distributed.rpc_calls_per_step."+method] = float64(len(lat)) / rounds
		m["distributed.rpc_p50_us."+method] = median(lat)
		m["distributed.rpc_payload_kb_per_step."+method] = payload / rounds / 1024
	}
	for _, c := range tr.calls {
		if c.err != nil {
			m["distributed.rpc_errors"]++
			if distributed.IsRetryable(c.err) {
				m["distributed.retries"]++
			}
		}
	}
	retained := float64(min(tr.rounds, retainRounds))
	wireBytes, enc, dec, err := encodeInIsolation(tr.messages)
	if err != nil {
		return err
	}
	m["distributed.wire_kb_per_step"] = float64(wireBytes) / retained / 1024
	m["distributed.encode_ms_per_step"] = ms(enc+dec) / retained
	return nil
}

// pushApplyProbe times Worker.PushGradients alone — accumulate, m-of-n
// barrier with m = 1, apply the rule — on a fresh worker holding copies of
// the busiest shard's variables, with a push the run actually sent.
func (s *psSpec) pushApplyProbe(t *psTrainer, budget time.Duration, m metrics) error {
	var push *distributed.PushGradientsReq
	var size int64
	for _, msg := range t.trace.messages {
		req, ok := msg.req.(*distributed.PushGradientsReq)
		if !ok {
			continue
		}
		var n int64
		for _, g := range req.Grads {
			n += tensorBytes(g.Dense, g.Indices, g.Values)
		}
		if push == nil || n > size {
			push, size = req, n
		}
	}
	if push == nil {
		return fmt.Errorf("%s: traced pass retained no PushGradients", s.name)
	}
	w := distributed.NewWorker("ps", 0, nil)
	for _, shard := range t.cluster.shards {
		for name, v := range shard.Device().Resources().SnapshotVariables() {
			if err := w.Device().Resources().FindOrCreateVariable(name, v.DType(), v.Shape()).Assign(v); err != nil {
				return err
			}
		}
	}
	round := int64(0)
	us, err := p50of(budget, 10, func() error {
		req := *push
		req.Origin, req.Round, req.NumFresh, req.StepName = "bench", round, 1, ""
		round++
		_, err := w.PushGradients(&req, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["distributed.push_apply_p50_us"] = us
	return nil
}

// trainShares splits TrainStep wall time, from the adopted spans: the part
// inside the worker's own RunGraph (computing loss and gradients, parameter
// reads included) and the part inside PushGradients (push, shard-side
// barrier and apply).
func trainShares(spans []span, m metrics) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var wall, compute, push time.Duration
	for _, s := range spans {
		if s.Name != "train.TrainStep" {
			continue
		}
		wall += s.End - s.Start
		var runs, pushes []span
		for _, c := range children[s.ID] {
			switch {
			case strings.HasPrefix(c.Name, "RunGraph") && c.Lane == s.Lane:
				runs = append(runs, c)
			case strings.HasPrefix(c.Name, "PushGradients"):
				pushes = append(pushes, c)
			}
		}
		compute += cover(runs, s.Start, s.End)
		push += cover(pushes, s.Start, s.End)
	}
	if wall > 0 {
		m["train.compute_share"] = float64(compute) / float64(wall)
		m["train.push_share"] = float64(push) / float64(wall)
	}
}

// compileTimeProbe rebuilds replica 0's training step as train.NewReplicated
// lays it out — compute on the worker task, parameters round-robin over the
// PS tasks — and times each compile-time layer the master runs on it:
// optimize, place, partition, then per partition serialize (RegisterGraph
// ships GraphDefs) and compile (what each task does on receipt).
func (s *psSpec) compileTimeProbe(e *env, spec distributed.ClusterSpec, m metrics) error {
	model, pools := s.model(e)
	g := tf.NewGraph()
	wg := g.WithDevice(distributed.TaskName("worker", 0))
	var vars []*tf.Variable
	newVar := func(name string, init *tf.Tensor) *tf.Variable {
		dev := distributed.TaskName("ps", len(vars)%psTasks)
		v := g.WithDevice(dev).NewVariableFromTensor(name, init)
		vars = append(vars, v)
		return v
	}
	mod := model(wg, newVar)
	xs := make([]tf.Output, len(vars))
	for i, v := range vars {
		xs[i] = v.Value()
	}
	grads, err := wg.Gradients([]tf.Output{mod.Loss}, xs)
	if err != nil {
		return err
	}
	fetches := []graph.Endpoint{mod.Loss.Unwrap()}
	for _, gr := range grads {
		switch {
		case gr.Sparse != nil:
			fetches = append(fetches, gr.Sparse.Indices.Unwrap(), gr.Sparse.Values.Unwrap())
		case gr.Dense.Valid():
			fetches = append(fetches, gr.Dense.Unwrap())
		}
	}
	if err := g.Err(); err != nil {
		return err
	}
	var feeds []graph.Endpoint
	for name := range pools[0][0] {
		feeds = append(feeds, mod.Inputs[name].Unwrap())
	}
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].String() < feeds[j].String() })

	raw := g.Raw()
	fetches, err = optimizeProbe(raw, feeds, fetches, nil, m)
	if err != nil {
		return err
	}
	set, err := graph.Prune(raw, feeds, fetches, nil)
	if err != nil {
		return err
	}
	devices := spec.Devices()
	t0 := time.Now()
	asg, err := placement.Place(raw, set, devices, devices[0])
	if err != nil {
		return err
	}
	m["placement.place_ms"] = since(t0)
	t0 = time.Now()
	parts, err := partition.Partition(raw, set, asg, feeds, fetches, nil)
	if err != nil {
		return err
	}
	m["partition.partition_ms"] = since(t0)
	m["partition.parts"] = float64(len(parts.Parts))
	for _, p := range parts.Parts {
		var pf, po []graph.Endpoint
		for _, local := range p.Feeds {
			pf = append(pf, local)
		}
		for _, local := range p.Fetches {
			po = append(po, local)
		}
		targets := append([]*graph.Node(nil), p.Targets...)
		consumed := map[int]bool{}
		for _, n := range p.Graph.Nodes() {
			if n.Op() == "Send" || n.Op() == "_Send" {
				m["partition.send_recv_pairs"]++
			}
			for _, in := range n.Inputs() {
				consumed[in.Node.ID()] = true
			}
			for _, c := range n.ControlInputs() {
				consumed[c.ID()] = true
			}
		}
		// As the master does: every sink of a partition is a target, so
		// Sends and stateful updates run even where nothing is fetched.
		for _, n := range p.Graph.Nodes() {
			if !consumed[n.ID()] {
				targets = append(targets, n)
			}
		}
		if err := graphDefProbe(p.Graph, m); err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := exec.Compile(p.Graph, pf, po, targets, "CPU"); err != nil {
			return err
		}
		m["exec.compile_ms"] += since(t0)
	}
	return nil
}
