package train

// Sync replicated training pushes gradients to the owning PS shard, which
// applies the optimizer's update rule there. The contract is behavioral
// equivalence with §4.4's definition of a synchronous step — one process
// minimizing the mean of the replicas' losses — and bit equality between the
// shard's apply and the client graph's; the traffic shape is pinned too:
// gradients ride PushGradients from the worker tasks only, never RunGraph
// feeds or fetches, and sparse embedding gradients push only the gathered
// rows.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/distributed"
	"repro/tf"
)

// runSyncReplicated drives a 2-job in-process cluster through `rounds`
// synchronous rounds with every worker participating, returning each
// worker's per-round losses and the merged PS variable state.
func runSyncReplicated(t *testing.T, opts ReplicatedOptions, model ModelFn,
	feeds func(wi, s int) map[string]*tf.Tensor, psTasks, workers, rounds int,
) ([][]float64, map[string]*tf.Tensor) {
	t.Helper()
	spec := distributed.ClusterSpec{
		"ps":     make([]string, psTasks),
		"worker": make([]string, workers),
	}
	cluster := distributed.NewInProcCluster(spec)
	opts.Cluster = spec
	opts.Resolver = cluster.Resolver()
	opts.Sync = true
	r, err := NewReplicated(opts, model)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	losses := make([][]float64, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		losses[wi] = make([]float64, rounds)
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				loss, err := r.TrainStep(wi, feeds(wi, s))
				if err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", wi, s, err)
					return
				}
				losses[wi][s] = loss
			}
		}(wi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if step, err := r.GlobalStep(); err != nil || step != int64(rounds) {
		t.Fatalf("global step = %d, %v; want %d", step, err, rounds)
	}
	state := map[string]*tf.Tensor{}
	for i := 0; i < psTasks; i++ {
		task := distributed.TaskName("ps", i)
		for name, v := range cluster.Workers[task].Device().Resources().SnapshotVariables() {
			state[name] = v
		}
	}
	return losses, state
}

// runSingleProcess is the reference the replicated trainer is held to —
// §4.4's definition of a synchronous step, not a production path: one
// tf.Session holding every replica's loss over a single set of variables,
// minimizing their mean with the same optimizer. It returns what
// runSyncReplicated does. With touched set, each gradient is handed to the
// optimizer as the rows round s touches, each named once — the form in which
// a shard's aggregator hands a sparse mean to the rule.
func runSingleProcess(t *testing.T, opt Optimizer, m splitModel,
	feeds func(wi, s int) map[string]*tf.Tensor, touched func(s int) []int32, workers, rounds int,
) ([][]float64, map[string]*tf.Tensor) {
	t.Helper()
	g := tf.NewGraph()
	vars := m.vars(g.NewVariableFromTensor)
	models := make([]*Model, workers)
	perReplica := make([]tf.Output, workers)
	for wi := range models {
		models[wi] = m.loss(g.WithScope(fmt.Sprint("replica", wi)), vars)
		perReplica[wi] = models[wi].Loss
	}
	xs := make([]tf.Output, len(vars))
	for i, v := range vars {
		xs[i] = v.Value()
	}
	mean := g.Div(g.AddN(perReplica...), g.Const(float32(workers)))
	grads, err := g.Gradients([]tf.Output{mean}, xs)
	if err != nil {
		t.Fatal(err)
	}
	var rows tf.Output
	if touched != nil {
		rows = g.Placeholder("touched", tf.Int32, tf.Shape{-1})
		for i, gr := range grads {
			dense, err := g.DensifyGradient(gr)
			if err != nil {
				t.Fatal(err)
			}
			grads[i] = tf.Gradient{Sparse: &tf.IndexedSlices{
				Indices: rows, Values: g.Gather(dense, rows), NumRows: vars[i].Shape()[0]}}
		}
	}
	trainOp, err := opt.ApplyGradients(g, grads, vars)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	losses := make([][]float64, workers)
	for wi := range losses {
		losses[wi] = make([]float64, rounds)
	}
	for s := 0; s < rounds; s++ {
		fd := map[tf.Output]*tf.Tensor{}
		for wi, model := range models {
			for name, v := range feeds(wi, s) {
				fd[model.Inputs[name]] = v
			}
		}
		if touched != nil {
			ids := touched(s)
			fd[rows] = tf.FromInt32s(tf.Shape{len(ids)}, ids)
		}
		out, err := sess.Run(fd, perReplica, trainOp)
		if err != nil {
			t.Fatalf("round %d: %v", s, err)
		}
		for wi := range out {
			losses[wi][s] = out[wi].FloatAt(0)
		}
	}
	return losses, sess.Core().Device().Resources().SnapshotVariables()
}

// sixOptimizers is every optimizer of the package, at rates that keep the
// test models' trajectories well-conditioned.
var sixOptimizers = []struct {
	name string
	make func() Optimizer
}{
	{"sgd", func() Optimizer { return &GradientDescent{LearningRate: 0.1} }},
	{"momentum", func() Optimizer { return &Momentum{LearningRate: 0.02, Decay: 0.9} }},
	{"adagrad", func() Optimizer { return &Adagrad{LearningRate: 0.5} }},
	{"rmsprop", func() Optimizer { return &RMSProp{LearningRate: 0.05, Decay: 0.9} }},
	{"adadelta", func() Optimizer { return &Adadelta{LearningRate: 1, Rho: 0.95} }},
	{"adam", func() Optimizer { return &Adam{LearningRate: 0.05} }},
}

// matchesSingleProcess holds the replicated trainer's per-worker losses and
// final PS state — parameters and optimizer slots, under the same names —
// to the single-process reference's at 1e-6.
func matchesSingleProcess(t *testing.T, wantLosses, gotLosses [][]float64, want, got map[string]*tf.Tensor) {
	t.Helper()
	const tolerance = 1e-6
	for wi := range wantLosses {
		for s := range wantLosses[wi] {
			w, g := wantLosses[wi][s], gotLosses[wi][s]
			if diff := math.Abs(g - w); diff > tolerance*math.Max(1, math.Abs(w)) {
				t.Errorf("worker %d round %d: replicated loss %.9f, single-process %.9f", wi, s, g, w)
			}
		}
	}
	if len(got) != len(want)+1 { // + the global step
		t.Errorf("the PS shards hold %d variables, the single process %d (+ the global step)", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Errorf("the PS shards hold no variable %q", name)
			continue
		}
		for i := 0; i < w.NumElements(); i++ {
			if diff := math.Abs(g.FloatAt(i) - w.FloatAt(i)); diff > tolerance {
				t.Errorf("%s[%d]: replicated %.9f, single-process %.9f", name, i, g.FloatAt(i), w.FloatAt(i))
			}
		}
	}
}

// TestPSApplySyncMatchesSingleProcess is the equivalence bar of sync
// training: for every optimizer, two workers pushing to two PS shards must
// reproduce — loss for loss, parameter for parameter, slot for slot — one
// process minimizing the mean of the two replicas' losses.
func TestPSApplySyncMatchesSingleProcess(t *testing.T) {
	const rounds = 12
	feeds := func(wi, s int) map[string]*tf.Tensor { return repFeeds(int64(wi*1000 + s)) }
	for _, tc := range sixOptimizers {
		t.Run(tc.name, func(t *testing.T) {
			wantLosses, want := runSingleProcess(t, tc.make(), linearModel, feeds, nil, 2, rounds)
			gotLosses, got := runSyncReplicated(t,
				ReplicatedOptions{Optimizer: tc.make()}, linearModel.replica, feeds, 2, 2, rounds)
			matchesSingleProcess(t, wantLosses, gotLosses, want, got)
		})
	}
}

const (
	embVocab = 8
	embDim   = 4
	embBatch = 3
)

func embInitial() *tf.Tensor {
	init := tf.NewTensor(tf.Float32, tf.Shape{embVocab, embDim})
	for i := 0; i < init.NumElements(); i++ {
		init.SetFloat(i, float64(i%7)*0.25-0.5)
	}
	return init
}

// embModel gathers a few embedding rows, so the table's gradient is sparse
// (indices, values) — the shape of traffic §4.2 optimizes.
var embModel = splitModel{
	vars: func(declare func(string, *tf.Tensor) *tf.Variable) []*tf.Variable {
		return []*tf.Variable{declare("emb", embInitial())}
	},
	loss: func(g *tf.Graph, vars []*tf.Variable) *Model {
		idx := g.Placeholder("idx", tf.Int32, tf.Shape{embBatch})
		rows := g.Gather(vars[0].Value(), idx)
		loss := g.Mean(g.Square(rows), nil, false)
		return &Model{Loss: loss, Inputs: map[string]tf.Output{"idx": idx}}
	},
}

func embFeeds(wi, s int) map[string]*tf.Tensor {
	v := []int32{
		int32((wi + s) % embVocab),
		int32((wi*3 + s*2 + 1) % embVocab),
		int32((s*5 + 2) % embVocab),
	}
	return map[string]*tf.Tensor{"idx": tf.FromInt32s(tf.Shape{embBatch}, v)}
}

// TestPSApplySyncMatchesSingleProcessSparse: sparse pushes (row indices +
// values, never densified on the wire; ids repeat across the workers) must
// land every optimizer on the parameters and slots of one process applying
// the mean loss's gradient at the touched rows.
func TestPSApplySyncMatchesSingleProcessSparse(t *testing.T) {
	const (
		workers = 2
		rounds  = 10
	)
	touched := func(s int) []int32 {
		var ids []int32
		seen := map[int32]bool{}
		for wi := 0; wi < workers; wi++ {
			for _, id := range embFeeds(wi, s)["idx"].Int32s() {
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
		return ids
	}
	for _, tc := range sixOptimizers {
		t.Run(tc.name, func(t *testing.T) {
			wantLosses, want := runSingleProcess(t, tc.make(), embModel, embFeeds, touched, workers, rounds)
			gotLosses, got := runSyncReplicated(t,
				ReplicatedOptions{Optimizer: tc.make()}, embModel.replica, embFeeds, 2, workers, rounds)
			matchesSingleProcess(t, wantLosses, gotLosses, want, got)
		})
	}
}

// trafficCounter tallies gradient-shaped tensors crossing the trainer's
// transports — the client's RunGraph feeds and fetches — and the
// PushGradients payloads, counted where they leave.
type trafficCounter struct {
	mu sync.Mutex
	// markClient counts RunGraph feed and fetch tensors with exactly
	// markElems elements — sized to match only the big variable's gradient.
	markElems  int
	markClient int
	// Per-variable push payload sizes, pushed from the worker tasks.
	pushDense  map[string]int // total dense elements pushed
	pushValues map[string]int // total sparse value elements pushed
	// clientPushes counts the PushGradients calls the client made itself.
	clientPushes int
	// aborts counts AbortStep calls; tasks are the cluster's workers.
	aborts int
	tasks  map[string]*distributed.Worker
}

// resolver wraps inner's transports; client says whether they are the
// trainer's or a task's own.
func (c *trafficCounter) resolver(inner distributed.Resolver, client bool) distributed.Resolver {
	return func(task string) (distributed.Transport, error) {
		tr, err := inner(task)
		if err != nil {
			return nil, err
		}
		return &countingTransport{Transport: tr, c: c, client: client}, nil
	}
}

type countingTransport struct {
	distributed.Transport
	c      *trafficCounter
	client bool
}

// mark counts the gradient-shaped tensors among ts.
func (c *trafficCounter) mark(ts []*tf.Tensor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range ts {
		if t != nil && t.NumElements() == c.markElems {
			c.markClient++
		}
	}
}

func (t *countingTransport) RunGraph(req *distributed.RunGraphReq) (*distributed.RunGraphResp, error) {
	t.c.mark(req.Feeds)
	resp, err := t.Transport.RunGraph(req)
	if err == nil {
		t.c.mark(resp.Fetches)
	}
	return resp, err
}

func (t *countingTransport) PushGradients(req *distributed.PushGradientsReq, abort <-chan struct{}) (*distributed.PushGradientsResp, error) {
	t.c.mu.Lock()
	if t.client {
		t.c.clientPushes++
	}
	for _, gp := range req.Grads {
		if gp.Dense != nil {
			t.c.pushDense[gp.Name] += gp.Dense.NumElements()
		}
		if gp.Values != nil {
			t.c.pushValues[gp.Name] += gp.Values.NumElements()
		}
	}
	t.c.mu.Unlock()
	return t.Transport.PushGradients(req, abort)
}

func (t *countingTransport) AbortStep(req *distributed.AbortStepReq) error {
	t.c.mu.Lock()
	t.c.aborts++
	t.c.mu.Unlock()
	return t.Transport.AbortStep(req)
}

const bigDim = 64

// bigModel makes the weight gradient uniquely identifiable by size: w's
// gradient has exactly bigDim elements, while the input feeds (8×64, 8×1)
// and the bias gradient (1) have other sizes.
func bigModel(rb *ReplicaGraph) (*Model, error) {
	x := rb.Placeholder("x", tf.Float32, tf.Shape{repBatch, bigDim})
	y := rb.Placeholder("y", tf.Float32, tf.Shape{repBatch, 1})
	w := rb.Variable("w", tf.NewTensor(tf.Float32, tf.Shape{bigDim, 1}))
	b := rb.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{1}))
	pred := rb.Add(rb.MatMul(x, w.Value()), b.Value())
	loss := rb.Mean(rb.Square(rb.Sub(pred, y)), nil, false)
	return &Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}, nil
}

func bigFeeds(wi, s int) map[string]*tf.Tensor {
	xs := tf.NewTensor(tf.Float32, tf.Shape{repBatch, bigDim})
	ys := tf.NewTensor(tf.Float32, tf.Shape{repBatch, 1})
	for i := 0; i < xs.NumElements(); i++ {
		xs.SetFloat(i, float64((i+wi*31+s*7)%11)*0.1-0.5)
	}
	for i := 0; i < ys.NumElements(); i++ {
		ys.SetFloat(i, float64((i+wi*13+s*3)%5)*0.2-0.4)
	}
	return map[string]*tf.Tensor{"x": xs, "y": ys}
}

// runCountedSync is runSyncReplicated with the master's transports, and the
// in-proc tasks' own, wrapped by a trafficCounter.
func runCountedSync(t *testing.T, opts ReplicatedOptions, model ModelFn,
	feeds func(wi, s int) map[string]*tf.Tensor, markElems, workers, rounds int,
) *trafficCounter {
	t.Helper()
	c := &trafficCounter{markElems: markElems, pushDense: map[string]int{}, pushValues: map[string]int{}}
	spec := distributed.ClusterSpec{"ps": make([]string, 1), "worker": make([]string, workers)}
	cluster := &distributed.InProcCluster{Spec: spec, Workers: map[string]*distributed.Worker{}}
	c.tasks = cluster.Workers
	for job, addrs := range spec {
		for i := range addrs {
			w := distributed.NewWorker(job, i, c.resolver(cluster.Resolver(), false))
			cluster.Workers[w.Task()] = w
		}
	}
	opts.Cluster = spec
	opts.Resolver = c.resolver(cluster.Resolver(), true)
	opts.Sync = true
	r, err := NewReplicated(opts, model)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				if _, err := r.TrainStep(wi, feeds(wi, s)); err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", wi, s, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return c
}

// TestPSApplyTrafficCarriesNoGradients pins the traffic shape of sync
// training: no gradient-shaped tensor crosses the client, in a RunGraph feed
// or fetch — gradients reach the shard only inside PushGradients, sent by
// the worker tasks, every worker's every round.
func TestPSApplyTrafficCarriesNoGradients(t *testing.T) {
	const (
		workers = 2
		rounds  = 3
	)
	ps := runCountedSync(t, ReplicatedOptions{Optimizer: &GradientDescent{LearningRate: 0.05}},
		bigModel, bigFeeds, bigDim, workers, rounds)
	if ps.markClient != 0 {
		t.Errorf("%d gradient-shaped tensors went through RunGraph feeds or fetches; gradients must ride PushGradients only",
			ps.markClient)
	}
	if ps.clientPushes != 0 {
		t.Errorf("the client made %d PushGradients calls; the worker tasks push", ps.clientPushes)
	}
	if want := workers * rounds * bigDim; ps.pushDense["w"] != want {
		t.Errorf("pushed %d dense elements for w, want %d (every worker, every round)",
			ps.pushDense["w"], want)
	}
}

// TestSuccessfulStepSendsNoAbortStep: sync rounds that succeed, dense and
// sparse, end without a cleanup round — no AbortStep from any caller, and no
// rendezvous entry left on any task.
func TestSuccessfulStepSendsNoAbortStep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model ModelFn
		feeds func(wi, s int) map[string]*tf.Tensor
	}{
		{"dense", bigModel, bigFeeds},
		{"sparse", embModel.replica, embFeeds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// markElems -1: no tensor is marked, only AbortStep is counted.
			c := runCountedSync(t, ReplicatedOptions{Optimizer: &GradientDescent{LearningRate: 0.05}},
				tc.model, tc.feeds, -1, 2, 3)
			if c.aborts != 0 {
				t.Errorf("Init and 3 rounds of 2 workers sent %d AbortStep calls, want 0", c.aborts)
			}
			for task, w := range c.tasks {
				if n := w.LocalTensorCount(); n != 0 {
					t.Errorf("%s holds %d rendezvous entries after successful rounds", task, n)
				}
			}
		})
	}
}

// rulelessOptimizer is an Optimizer that is not an UpdateRuler.
type rulelessOptimizer struct{ Optimizer }

// TestSyncNeedsUpdateRule: sync training applies the update on the shards,
// so an optimizer with no rule to ship them is refused at construction; async
// replicas apply their own updates and take any Optimizer.
func TestSyncNeedsUpdateRule(t *testing.T) {
	spec := distributed.ClusterSpec{"ps": make([]string, 1), "worker": make([]string, 1)}
	opts := ReplicatedOptions{Cluster: spec, Resolver: distributed.NewInProcCluster(spec).Resolver(),
		Optimizer: rulelessOptimizer{&GradientDescent{LearningRate: 0.1}}}
	r, err := NewReplicated(opts, repModel)
	if err != nil {
		t.Fatalf("async with a rule-less optimizer: %v", err)
	}
	r.Close()
	opts.Sync = true
	if _, err := NewReplicated(opts, repModel); err == nil {
		t.Fatal("sync with a rule-less optimizer was accepted")
	}
}

// TestSparsePushTrafficScalesWithGatheredRows: an embedding push carries
// the gathered rows' values (batch×dim elements), never a vocab-sized dense
// tensor — per-step traffic scales with the lookups, not the table (§4.2).
func TestSparsePushTrafficScalesWithGatheredRows(t *testing.T) {
	const (
		bigVocab = 128
		workers  = 2
		rounds   = 4
	)
	model := func(rb *ReplicaGraph) (*Model, error) {
		idx := rb.Placeholder("idx", tf.Int32, tf.Shape{embBatch})
		init := tf.NewTensor(tf.Float32, tf.Shape{bigVocab, embDim})
		for i := 0; i < init.NumElements(); i++ {
			init.SetFloat(i, float64(i%13)*0.1-0.6)
		}
		emb := rb.Variable("emb", init)
		rows := rb.Gather(emb.Value(), idx)
		loss := rb.Mean(rb.Square(rows), nil, false)
		return &Model{Loss: loss, Inputs: map[string]tf.Output{"idx": idx}}, nil
	}
	feeds := func(wi, s int) map[string]*tf.Tensor {
		v := []int32{
			int32((wi*17 + s) % bigVocab),
			int32((wi + s*29 + 3) % bigVocab),
			int32((s*41 + 7) % bigVocab),
		}
		return map[string]*tf.Tensor{"idx": tf.FromInt32s(tf.Shape{embBatch}, v)}
	}
	c := runCountedSync(t, ReplicatedOptions{Optimizer: &GradientDescent{LearningRate: 0.1}},
		model, feeds, bigVocab*embDim, workers, rounds)
	if c.pushDense["emb"] != 0 {
		t.Errorf("embedding gradient was densified on the wire: %d dense elements pushed", c.pushDense["emb"])
	}
	if want := workers * rounds * embBatch * embDim; c.pushValues["emb"] != want {
		t.Errorf("pushed %d sparse value elements for emb, want %d (= workers×rounds×batch×dim; vocab×dim would be %d per push)",
			c.pushValues["emb"], want, bigVocab*embDim)
	}
	if c.markClient != 0 {
		t.Errorf("%d vocab-sized tensors crossed RunGraph feeds or fetches; embedding traffic must scale with the gathered rows", c.markClient)
	}
	if c.clientPushes != 0 {
		t.Errorf("the client made %d PushGradients calls; the worker tasks push", c.clientPushes)
	}
}

// TestShardApplyIsBitIdenticalToGraphApply is the differential bar behind
// "one optimizer": a bare shard — never Init-ed, so slots start from the
// rule's own initializer — fed two workers' pushes must hold exactly the
// bits a local session holds after running the optimizer's ApplyGradients
// on the same mean, round after round. Equality is ==, not a tolerance:
// both sides run the ops optim.Apply emits. Sparse pushes repeat row ids
// within a worker and across workers; the session sees each touched row
// once, carrying the mean. Gradient values are dyadic, so the sums do not
// depend on the order the two pushes arrive in.
func TestShardApplyIsBitIdenticalToGraphApply(t *testing.T) {
	const (
		rows, dim = 6, 3
		rounds    = 4
	)
	shape := tf.Shape{rows, dim}
	// cast builds a dt tensor from float64 data.
	cast := func(dt tf.DType, shape tf.Shape, data []float64) *tf.Tensor {
		out := tf.NewTensor(dt, shape)
		for i, v := range data {
			out.SetFloat(i, v)
		}
		return out
	}
	initial := make([]float64, rows*dim)
	for i := range initial {
		initial[i] = float64(i%7)*0.3 - 0.8
	}
	// grad is worker wi's k-th gradient row in round s: multiples of 1/8.
	grad := func(wi, s, k int) []float64 {
		out := make([]float64, dim)
		for j := range out {
			out[j] = float64((wi*5+s*3+k*2+j)%9-4) / 8
		}
		return out
	}
	ids := [2][]int32{{1, 3, 1}, {3, 4, 0}} // row 1 repeats within worker 0, row 3 across workers

	for _, opt := range sixOptimizers {
		for _, sparse := range []bool{false, true} {
			for _, dt := range []tf.DType{tf.Float32, tf.Float64} {
				kind := map[bool]string{false: "dense", true: "sparse"}[sparse]
				t.Run(fmt.Sprintf("%s/%s/%v", opt.name, kind, dt), func(t *testing.T) {
					// The reference: a local session applying fed means.
					g := tf.NewGraph()
					v := g.NewVariableFromTensor("v", cast(dt, shape, initial))
					feedIdx := g.Placeholder("idx", tf.Int32, tf.Shape{-1})
					feedVal := g.Placeholder("val", dt, tf.Shape{-1, dim})
					feedDense := g.Placeholder("dense", dt, shape)
					gr := tf.Gradient{Dense: feedDense}
					if sparse {
						gr = tf.Gradient{Sparse: &tf.IndexedSlices{Indices: feedIdx, Values: feedVal, NumRows: rows}}
					}
					apply, err := opt.make().ApplyGradients(g, []tf.Gradient{gr}, []*tf.Variable{v})
					if err != nil {
						t.Fatal(err)
					}
					sess, err := tf.NewSession(g)
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close()
					if err := sess.RunTargets(g.InitOp()); err != nil {
						t.Fatal(err)
					}

					// The shard holds the parameter and nothing else.
					shard := distributed.NewWorker("ps", 0, nil)
					res := shard.Device().Resources()
					if err := res.FindOrCreateVariable("v", dt, shape).Assign(cast(dt, shape, initial)); err != nil {
						t.Fatal(err)
					}
					rule := opt.make().(UpdateRuler).UpdateRule()

					for s := 0; s < rounds; s++ {
						var pushes [2]distributed.GradientPush
						sum := map[int32][]float64{} // row → summed gradient
						var order []int32
						for wi := range pushes {
							var flat []float64
							n := rows
							if sparse {
								n = len(ids[wi])
							}
							for k := 0; k < n; k++ {
								row := int32(k)
								if sparse {
									row = ids[wi][k]
								}
								gk := grad(wi, s, k)
								flat = append(flat, gk...)
								if sum[row] == nil {
									sum[row] = make([]float64, dim)
									order = append(order, row)
								}
								for j := range gk {
									sum[row][j] += gk[j]
								}
							}
							pushes[wi] = distributed.GradientPush{Name: "v", Dense: cast(dt, shape, flat)}
							if sparse {
								pushes[wi] = distributed.GradientPush{Name: "v",
									Indices: tf.FromInt32s(tf.Shape{n}, ids[wi]), Values: cast(dt, tf.Shape{n, dim}, flat)}
							}
						}
						var wg sync.WaitGroup
						for wi := range pushes {
							wg.Add(1)
							go func(wi int) {
								defer wg.Done()
								_, err := shard.PushGradients(&distributed.PushGradientsReq{
									Origin: fmt.Sprint("worker", wi), Round: int64(s), NumFresh: 2,
									Rule: rule, Grads: []distributed.GradientPush{pushes[wi]},
								}, nil)
								if err != nil {
									t.Error(err)
								}
							}(wi)
						}
						wg.Wait()

						var mean []float64
						for _, row := range order {
							for _, x := range sum[row] {
								mean = append(mean, x/2)
							}
						}
						feeds := map[tf.Output]*tf.Tensor{feedDense: cast(dt, shape, mean)}
						if sparse {
							feeds = map[tf.Output]*tf.Tensor{
								feedIdx: tf.FromInt32s(tf.Shape{len(order)}, order),
								feedVal: cast(dt, tf.Shape{len(order), dim}, mean),
							}
						}
						if _, err := sess.Run(feeds, nil, apply); err != nil {
							t.Fatal(err)
						}

						want := sess.Core().Device().Resources().SnapshotVariables()
						got := res.SnapshotVariables()
						if len(got) != len(want) {
							t.Fatalf("round %d: shard holds %d variables, session %d", s, len(got), len(want))
						}
						for name, w := range want {
							if !got[name].Equal(w) {
								t.Fatalf("round %d: %s on the shard\n%v\nin the session\n%v", s, name, got[name], w)
							}
						}
					}
				})
			}
		}
	}
}
