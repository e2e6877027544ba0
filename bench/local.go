package main

import (
	"fmt"
	"math"
	"time"

	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
)

// The two single-machine workloads run the same tf → core → exec layers in
// opposite regimes. mlp_local's step is a handful of large matrix products
// (kernel time dominates; scheduling work should not show). while_local's
// step is ~2000 tiny node executions inside a loop frame (the frame-aware
// executor path, stack ops and per-node scheduling dominate; kernel work
// should not show).

const (
	mlpBatch, mlpIn, mlpHidden, mlpClasses = 64, 128, 256, 10

	whileIters, whileBatch, whileDim = 32, 16, 32
)

// varMaker declares a model parameter: tf.Graph.NewVariableFromTensor
// locally, ReplicaGraph.Variable (sharded over the PS tasks) in ps.go.
type varMaker func(name string, init *tf.Tensor) *tf.Variable

// mlpLayers chains Dense layers (ReLU between, linear head) over variables
// that were declared beforehand in w0,b0,w1,b1,... order.
func mlpLayers(g *tf.Graph, x tf.Output, vars []*tf.Variable) tf.Output {
	cur := x
	for i := 0; i+1 < len(vars); i += 2 {
		cur = g.BiasAdd(g.MatMul(cur, vars[i].Value()), vars[i+1].Value())
		if i+2 < len(vars) {
			cur = g.Relu(cur)
		}
	}
	return cur
}

// localModel is one single-machine training graph with its seeded inputs.
type localModel struct {
	g     *tf.Graph
	loss  tf.Output
	train *tf.Operation
	pool  []map[tf.Output]*tf.Tensor
}

// localSpec describes a single-machine workload to the shared bring-up,
// verification and probe code.
type localSpec struct {
	name  string
	build func(e *env) (*localModel, error)
	// kernels lists the matrix products of one step (forward + backward),
	// for the tensor-layer probes.
	kernels []matmulCall
}

func buildMLP(e *env) (*localModel, error) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{mlpBatch, mlpIn})
	y := g.Placeholder("y", tf.Int32, tf.Shape{mlpBatch})
	var vars []*tf.Variable
	for i, init := range denseInit(e.rng("mlp_local/init"), []int{mlpIn, mlpHidden, mlpHidden, mlpClasses}) {
		vars = append(vars, g.NewVariableFromTensor(fmt.Sprintf("mlp/p%d", i), init))
	}
	loss := nn.CrossEntropyLoss(g, mlpLayers(g, x, vars), y, 0, nil)
	op, err := (&train.Momentum{LearningRate: 0.05, Decay: 0.9}).Minimize(g, loss, vars)
	if err != nil {
		return nil, err
	}
	teacher := uniform(e.rng("mlp_local/teacher"), tf.Shape{mlpIn, mlpClasses}, -1, 1)
	data := e.rng("mlp_local/data")
	m := &localModel{g: g, loss: loss, train: op}
	for i := 0; i < poolSize; i++ {
		xs := uniform(data, tf.Shape{mlpBatch, mlpIn}, -1, 1)
		m.pool = append(m.pool, map[tf.Output]*tf.Tensor{x: xs, y: teacherLabels(xs, teacher)})
	}
	return m, g.Err()
}

func buildWhile(e *env) (*localModel, error) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{whileBatch, whileDim})
	y := g.Placeholder("y", tf.Float32, tf.Shape{whileBatch, whileDim})
	init := e.rng("while_local/init")
	w := g.NewVariableFromTensor("w", uniform(init, tf.Shape{whileDim, whileDim}, -0.3, 0.3))
	wVal := w.Value()
	outs := g.While(
		[]tf.Output{g.Const(int32(0)), x}, nil,
		func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], g.Const(int32(whileIters))) },
		func(vars, _ []tf.Output) []tf.Output {
			return []tf.Output{g.Add(vars[0], g.Const(int32(1))), g.Tanh(g.MatMul(vars[1], wVal))}
		},
	)
	loss := g.Mean(g.Square(g.Sub(outs[1], y)), nil, false)
	op, err := (&train.GradientDescent{LearningRate: 0.05}).Minimize(g, loss, []*tf.Variable{w})
	if err != nil {
		return nil, err
	}
	teacher := uniform(e.rng("while_local/teacher"), tf.Shape{whileDim, whileDim}, -0.3, 0.3)
	data := e.rng("while_local/data")
	m := &localModel{g: g, loss: loss, train: op}
	for i := 0; i < poolSize; i++ {
		xs := uniform(data, tf.Shape{whileBatch, whileDim}, -1, 1)
		m.pool = append(m.pool, map[tf.Output]*tf.Tensor{x: xs, y: recurrence(xs, teacher, whileIters)})
	}
	return m, g.Err()
}

// mlpKernels and whileKernels are the matrix products of one training step:
// per layer the forward product (bias fused), the weight gradient xᵀ·dy and
// — except into the input — the activation gradient dy·Wᵀ.
func denseKernels(batch int, widths []int) []matmulCall {
	var ks []matmulCall
	for i := 0; i+1 < len(widths); i++ {
		in, out := widths[i], widths[i+1]
		ks = append(ks,
			matmulCall{m: batch, k: in, n: out, bias: true, relu: i+2 < len(widths), times: 1},
			matmulCall{m: in, k: batch, n: out, ta: true, times: 1})
		if i > 0 {
			ks = append(ks, matmulCall{m: batch, k: out, n: in, tb: true, times: 1})
		}
	}
	return ks
}

func whileKernels() []matmulCall {
	return []matmulCall{
		{m: whileBatch, k: whileDim, n: whileDim, times: whileIters},
		{m: whileDim, k: whileBatch, n: whileDim, ta: true, times: whileIters},
		{m: whileBatch, k: whileDim, n: whileDim, tb: true, times: whileIters},
	}
}

// localTrainer is a brought-up single-machine workload.
type localTrainer struct {
	spec  *localSpec
	model *localModel
	sess  *tf.Session
	n     int // steps taken; picks the next batch
	loss0 float64
	last  float64
}

func (t *localTrainer) op(c opCtx) error {
	feeds := t.model.pool[t.n%len(t.model.pool)]
	t.n++
	var out []*tf.Tensor
	err := c.timed("tf.Session.Run", func() error {
		var err error
		out, err = t.sess.Run(feeds, []tf.Output{t.model.loss}, t.model.train)
		return err
	})
	if err != nil {
		return err
	}
	t.last = out[0].FloatAt(0)
	if math.IsNaN(t.last) || math.IsInf(t.last, 0) {
		return fmt.Errorf("%s: step %d produced loss %v", t.spec.name, t.n-1, t.last)
	}
	return nil
}

func (t *localTrainer) close() { t.sess.Close() }

func (s *localSpec) bringUp(e *env) (instance, setupTimes, error) {
	st := setupTimes{layerMs: map[string]float64{}}
	t0 := time.Now()
	model, err := s.build(e)
	if err != nil {
		return nil, setupTimes{}, err
	}
	st.layerMs["tf.build_ms"] = since(t0)
	sess, err := tf.NewSession(model.g)
	if err != nil {
		return nil, setupTimes{}, err
	}
	if err := sess.RunTargets(model.g.InitOp()); err != nil {
		return nil, setupTimes{}, err
	}
	t := &localTrainer{spec: s, model: model, sess: sess}
	if err := t.op(opCtx{}); err != nil { // the first, compiling step
		sess.Close()
		return nil, setupTimes{}, err
	}
	t.loss0 = t.last
	return t, st, nil
}

// verify steps the trainer to lossCheckStep and gates on the loss there.
func (s *localSpec) verify(e *env, inst instance) error {
	t := inst.(*localTrainer)
	for t.n <= lossCheckStep {
		if err := t.op(opCtx{}); err != nil {
			return err
		}
	}
	return checkLoss(s.name, e.seed, t.loss0, t.last)
}

func (s *localSpec) workload() *workload {
	return &workload{name: s.name, drivers: oneDriver, scaled: true, bringUp: s.bringUp, verify: s.verify, layers: s.layers}
}

func mlpLocal() *workload {
	return (&localSpec{name: "mlp_local", build: buildMLP,
		kernels: denseKernels(mlpBatch, []int{mlpIn, mlpHidden, mlpHidden, mlpClasses})}).workload()
}

func whileLocal() *workload {
	return (&localSpec{name: "while_local", build: buildWhile, kernels: whileKernels()}).workload()
}
