package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/distributed"
	"repro/tf"
	"repro/tf/train"
)

// The two parameter-server workloads run train.NewReplicated{Sync} with
// PS-side Momentum over a real TCP loopback cluster — 2 distributed.NewPS
// tasks and 2 distributed.Serve workers, every task with its own
// TCPResolver as separate tfserver processes would have — in opposite
// regimes. ps_dense_tcp moves ~400 KB of parameters down and ~400 KB of
// dense gradients up per worker per round (gob encoding and the shard-side
// apply loops dominate). ps_sparse_tcp pushes only (indices, values) for the
// rows a batch touched, but reads a 2 MB embedding table (small pushes,
// sparse apply, large parameter read). One op is one synchronous round: both
// workers step, the barrier lives at the shards.

const (
	psTasks, psWorkers = 2, 2

	denseBatch, denseIn, denseHidden = 32, 128, 256

	sparseVocab, sparseDim, sparseBatch = 8192, 64, 256
)

// psModel builds one replica's model into g, declaring parameters through
// newVar, and returns the loss and the named input placeholders.
type psModel func(g *tf.Graph, newVar varMaker) *train.Model

// psSpec describes a parameter-server workload.
type psSpec struct {
	name string
	// model returns the (deterministic) model builder and each worker's pool
	// of seeded feeds.
	model func(e *env) (psModel, [][]map[string]*tf.Tensor)
	// kernels lists one worker's matrix products per step.
	kernels []matmulCall
}

func denseModel(e *env) (psModel, [][]map[string]*tf.Tensor) {
	inits := denseInit(e.rng("ps_dense_tcp/init"), []int{denseIn, denseHidden, denseHidden, 1})
	build := func(g *tf.Graph, newVar varMaker) *train.Model {
		x := g.Placeholder("x", tf.Float32, tf.Shape{denseBatch, denseIn})
		y := g.Placeholder("y", tf.Float32, tf.Shape{denseBatch, 1})
		// Parameters shard round-robin in declaration order: declaring the
		// two large weight matrices first puts one on each PS task instead
		// of every weight on task 0 and every bias on task 1.
		vars := make([]*tf.Variable, len(inits))
		for _, i := range []int{0, 2, 1, 3, 4, 5} {
			vars[i] = newVar(fmt.Sprintf("dense/p%d", i), inits[i])
		}
		loss := g.Mean(g.Square(g.Sub(mlpLayers(g, x, vars), y)), nil, false)
		return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}
	}
	teacher := newRegressionTeacher(e.rng("ps_dense_tcp/teacher"), denseIn, 16)
	pools := make([][]map[string]*tf.Tensor, psWorkers)
	for w := range pools {
		data := e.rng(fmt.Sprintf("ps_dense_tcp/data/%d", w))
		for i := 0; i < poolSize; i++ {
			xs := uniform(data, tf.Shape{denseBatch, denseIn}, -1, 1)
			pools[w] = append(pools[w], map[string]*tf.Tensor{"x": xs, "y": teacher.targets(data, xs)})
		}
	}
	return build, pools
}

func sparseModel(e *env) (psModel, [][]map[string]*tf.Tensor) {
	init := e.rng("ps_sparse_tcp/init")
	embInit := uniform(init, tf.Shape{sparseVocab, sparseDim}, -0.1, 0.1)
	headInit := uniform(init, tf.Shape{sparseDim, 1}, -0.125, 0.125)
	build := func(g *tf.Graph, newVar varMaker) *train.Model {
		idx := g.Placeholder("idx", tf.Int32, tf.Shape{sparseBatch})
		y := g.Placeholder("y", tf.Float32, tf.Shape{sparseBatch, 1})
		emb := newVar("emb", embInit)
		w := newVar("head/w", headInit)
		b := newVar("head/b", tf.NewTensor(tf.Float32, tf.Shape{1}))
		rows := g.Gather(emb.Value(), idx)
		pred := g.Add(g.MatMul(rows, w.Value()), b.Value())
		loss := g.Mean(g.Square(g.Sub(pred, y)), nil, false)
		return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"idx": idx, "y": y}}
	}
	// Each id has a fixed target, so the rows a batch touches can fit it.
	target := uniform(e.rng("ps_sparse_tcp/teacher"), tf.Shape{sparseVocab}, -1, 1).Float32s()
	pools := make([][]map[string]*tf.Tensor, psWorkers)
	for w := range pools {
		data := e.rng(fmt.Sprintf("ps_sparse_tcp/data/%d", w))
		for i := 0; i < poolSize; i++ {
			ids := zipfIDs(data, sparseBatch, sparseVocab)
			ys := make([]float32, sparseBatch)
			for j, id := range ids {
				ys[j] = target[id]
			}
			pools[w] = append(pools[w], map[string]*tf.Tensor{
				"idx": tf.FromInt32s(tf.Shape{sparseBatch}, ids),
				"y":   tf.FromFloat32s(tf.Shape{sparseBatch, 1}, ys),
			})
		}
	}
	return build, pools
}

// psCluster is a brought-up cluster: TCP loopback, or in-process for the
// same-workload-without-a-wire comparison.
type psCluster struct {
	spec    distributed.ClusterSpec
	rec     *wireRecorder
	client  *resolverWrap   // the masters' resolver (master→task)
	tasks   []*resolverWrap // each task's own resolver (task→task)
	servers []*distributed.Server
	shards  []*distributed.Worker // the PS tasks' workers, for shard-state probes
}

func newTCPCluster() (*psCluster, error) {
	c := &psCluster{
		spec: distributed.ClusterSpec{"ps": make([]string, psTasks), "worker": make([]string, psWorkers)},
		rec:  &wireRecorder{},
	}
	// Every task resolves peers through its own connection cache, bound
	// late because addresses are only known once every listener is up.
	taskResolver := func() distributed.Resolver {
		w := newResolverWrap(nil, "", c.rec)
		c.tasks = append(c.tasks, w)
		return w.resolve
	}
	for i := range c.spec["ps"] {
		c.spec["ps"][i] = "127.0.0.1:0"
		ps, err := distributed.NewPS(c.spec, "ps", i, taskResolver(), distributed.PSOptions{})
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, ps.Server)
		c.shards = append(c.shards, ps.Worker)
		c.spec["ps"][i] = ps.Server.Addr()
		c.tasks[len(c.tasks)-1].caller = ps.Worker.Task()
	}
	for i := range c.spec["worker"] {
		w := distributed.NewWorker("worker", i, taskResolver())
		srv, err := distributed.Serve(w, "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.spec["worker"][i] = srv.Addr()
		c.tasks[len(c.tasks)-1].caller = w.Task()
	}
	for _, t := range c.tasks {
		t.inner = distributed.TCPResolver(c.spec)
	}
	c.client = newResolverWrap(distributed.TCPResolver(c.spec), "client", c.rec)
	return c, nil
}

func newInProcCluster() *psCluster {
	spec := distributed.ClusterSpec{"ps": make([]string, psTasks), "worker": make([]string, psWorkers)}
	ic := distributed.NewInProcCluster(spec)
	c := &psCluster{spec: spec, rec: &wireRecorder{}}
	c.client = newResolverWrap(ic.Resolver(), "client", c.rec)
	for i := range spec["ps"] {
		c.shards = append(c.shards, ic.Workers[distributed.TaskName("ps", i)])
	}
	return c
}

// close releases every connection, then stops every listener and waits for
// their handlers.
func (c *psCluster) close() {
	if c.client != nil {
		c.client.close()
	}
	for _, t := range c.tasks {
		t.close()
	}
	for _, s := range c.servers {
		s.Close() // error dropped: teardown of a loopback listener
	}
}

// psTrainer is a brought-up parameter-server workload. One persistent
// driver goroutine per worker task issues that worker's TrainSteps; op
// releases them for one round and waits for both.
type psTrainer struct {
	spec    *psSpec
	cluster *psCluster
	r       *train.Replicated
	pools   [][]map[string]*tf.Tensor
	ckptDir string

	n     int       // rounds taken
	loss0 []float64 // per worker, round 0
	last  []float64 // per worker, latest round

	start []chan opCtx
	done  chan error
	wg    sync.WaitGroup

	inproc *psTrainer // same workload without a wire, kept by verify for the probes
	trace  *psTrace   // what the last traced pass observed
}

func workerLane(wi int) string { return distributed.TaskName("worker", wi) }

func (t *psTrainer) drive(wi int, start <-chan opCtx) {
	defer t.wg.Done()
	for c := range start {
		feeds := t.pools[wi][t.n%len(t.pools[wi])]
		id, t0 := c.tr.newID(), time.Now()
		loss, err := t.r.TrainStep(wi, feeds)
		c.tr.add(id, c.parent, c.op, "train.TrainStep", workerLane(wi), t0, time.Now())
		if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			err = fmt.Errorf("%s: round %d produced loss %v on worker %d", t.spec.name, t.n, loss, wi)
		}
		t.last[wi] = loss
		t.done <- err
	}
}

func (t *psTrainer) op(c opCtx) error {
	for _, ch := range t.start {
		ch <- c
	}
	var first error
	for range t.start {
		if err := <-t.done; err != nil && first == nil {
			first = err
		}
	}
	t.n++
	if t.trace != nil && t.n-t.trace.startRound == retainRounds {
		t.cluster.rec.retain.Store(false)
	}
	return first
}

func (t *psTrainer) close() {
	if t.inproc != nil {
		t.inproc.close()
	}
	for _, ch := range t.start {
		close(ch)
	}
	t.wg.Wait()
	t.r.Close()
	t.cluster.close()
	os.RemoveAll(t.ckptDir) // error dropped: the run's scratch directory is removed at exit anyway
}

// bringUp builds the workload cold over the given cluster: replica graphs,
// masters, init (registering the init subgraphs on the shards), and the
// first round (registering and compiling every replica's step).
func (s *psSpec) bringUp(e *env, cluster *psCluster) (*psTrainer, setupTimes, error) {
	st := setupTimes{layerMs: map[string]float64{}}
	cluster.rec.observe.Store(true) // RegisterGraph time during bring-up
	model, pools := s.model(e)
	var modelTime time.Duration
	ckptDir, err := os.MkdirTemp(e.tmp, "ckpt-")
	if err != nil {
		cluster.close()
		return nil, setupTimes{}, err
	}
	t0 := time.Now()
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: cluster.spec, Resolver: cluster.client.resolve,
		Optimizer: &train.Momentum{LearningRate: 0.05, Decay: 0.9},
		Sync:      true,
		// A prefix so train.save_ms can call SaveNow; the interval keeps
		// periodic saves out of the measured rounds.
		CheckpointPrefix: filepath.Join(ckptDir, "model"), CheckpointEvery: math.MaxInt32,
	}, func(rb *train.ReplicaGraph) (*train.Model, error) {
		m0 := time.Now()
		defer func() { modelTime += time.Since(m0) }()
		return model(rb.Graph, rb.Variable), nil
	})
	if err != nil {
		cluster.close()
		return nil, setupTimes{}, err
	}
	st.layerMs["train.build_ms"] = since(t0)
	st.layerMs["tf.build_ms"] = float64(modelTime) / float64(time.Millisecond)
	t := &psTrainer{spec: s, cluster: cluster, r: r, pools: pools, ckptDir: ckptDir,
		loss0: make([]float64, psWorkers), last: make([]float64, psWorkers), done: make(chan error)}
	for wi := 0; wi < psWorkers; wi++ {
		start := make(chan opCtx)
		t.start = append(t.start, start)
		t.wg.Add(1)
		go t.drive(wi, start)
	}
	t0 = time.Now()
	if _, err := r.Init(); err != nil {
		t.close()
		return nil, setupTimes{}, err
	}
	st.layerMs["train.init_ms"] = since(t0)
	if err := t.op(opCtx{}); err != nil { // the first, registering and compiling round
		t.close()
		return nil, setupTimes{}, err
	}
	copy(t.loss0, t.last)
	cluster.rec.observe.Store(false)
	calls, _ := cluster.rec.take()
	for _, c := range calls {
		if c.method == "RegisterGraph" {
			st.layerMs["distributed.register_ms"] += float64(c.end.Sub(c.start)) / float64(time.Millisecond)
		}
	}
	return t, st, nil
}

func (s *psSpec) bringUpTCP(e *env) (instance, setupTimes, error) {
	cluster, err := newTCPCluster()
	if err != nil {
		return nil, setupTimes{}, err
	}
	t, st, err := s.bringUp(e, cluster)
	if err != nil {
		return nil, setupTimes{}, err
	}
	return t, st, nil
}

// verify runs the TCP trainer to lossCheckStep, gates on worker 0's loss,
// and requires every worker's loss to equal what the same rounds produce on
// an in-process cluster: the wire must not change the arithmetic.
func (s *psSpec) verify(e *env, inst instance) error {
	t := inst.(*psTrainer)
	ref, _, err := s.bringUp(e, newInProcCluster())
	if err != nil {
		return fmt.Errorf("%s: in-process reference: %w", s.name, err)
	}
	t.inproc = ref
	for _, tr := range []*psTrainer{t, ref} {
		for tr.n <= lossCheckStep {
			if err := tr.op(opCtx{}); err != nil {
				return err
			}
		}
	}
	if err := checkLoss(s.name, e.seed, t.loss0[0], t.last[0]); err != nil {
		return err
	}
	for wi := range t.last {
		// Shards sum the two workers' contributions in arrival order, so
		// the last bits of a duplicated embedding row may differ.
		if !closeTo(t.last[wi], ref.last[wi], 1e-6) {
			return fmt.Errorf("%s: worker %d loss at round %d is %.9g over TCP but %.9g in-process",
				s.name, wi, lossCheckStep, t.last[wi], ref.last[wi])
		}
	}
	return nil
}

func (s *psSpec) workload() *workload {
	return &workload{name: s.name, drivers: oneDriver, scaled: true, bringUp: s.bringUpTCP, verify: s.verify, layers: s.layers}
}

func psDenseTCP() *workload {
	return (&psSpec{name: "ps_dense_tcp", model: denseModel,
		kernels: denseKernels(denseBatch, []int{denseIn, denseHidden, denseHidden, 1})}).workload()
}

func psSparseTCP() *workload {
	return (&psSpec{name: "ps_sparse_tcp", model: sparseModel, kernels: []matmulCall{
		{m: sparseBatch, k: sparseDim, n: 1, times: 1},
		{m: sparseDim, k: sparseBatch, n: 1, ta: true, times: 1},
		{m: sparseBatch, k: 1, n: sparseDim, tb: true, times: 1},
	}}).workload()
}
