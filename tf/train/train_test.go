package train_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/tf"
	"repro/tf/train"
)

// quadratic builds loss = mean((w·x − y)²) for a fixed dataset whose
// optimum is w* = (2, −3).
func quadratic(t *testing.T, g *tf.Graph) (loss tf.Output, w *tf.Variable) {
	t.Helper()
	x := g.Const(tf.FromFloat32s(tf.Shape{4, 2}, []float32{
		1, 0,
		0, 1,
		1, 1,
		2, 1,
	}))
	y := g.Const(tf.FromFloat32s(tf.Shape{4, 1}, []float32{2, -3, -1, 1}))
	w = g.NewVariableFromTensor("w", tf.NewTensor(tf.Float32, tf.Shape{2, 1}))
	pred := g.MatMul(x, w.Value())
	loss = g.Mean(g.Square(g.Sub(pred, y)), nil, false)
	return loss, w
}

func trainToConvergence(t *testing.T, opt train.Optimizer, steps int, wantLoss float64) {
	t.Helper()
	g := tf.NewGraph()
	loss, w := quadratic(t, g)
	trainOp, err := opt.Minimize(g, loss, []*tf.Variable{w})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < steps; i++ {
		out, err := sess.Run(nil, []tf.Output{loss}, trainOp)
		if err != nil {
			t.Fatal(err)
		}
		last = out[0].FloatAt(0)
	}
	if last > wantLoss {
		t.Errorf("%T: loss after %d steps = %g, want <= %g", opt, steps, last, wantLoss)
	}
	wv, err := sess.Fetch1(nil, w.Value())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wv.FloatAt(0)-2) > 0.2 || math.Abs(wv.FloatAt(1)+3) > 0.2 {
		t.Errorf("%T: learned w = (%g, %g), want (2, -3)", opt, wv.FloatAt(0), wv.FloatAt(1))
	}
}

func TestGradientDescentConverges(t *testing.T) {
	trainToConvergence(t, &train.GradientDescent{LearningRate: 0.1}, 400, 1e-4)
}

func TestMomentumConverges(t *testing.T) {
	trainToConvergence(t, &train.Momentum{LearningRate: 0.02, Decay: 0.9}, 400, 1e-4)
}

func TestAdagradConverges(t *testing.T) {
	trainToConvergence(t, &train.Adagrad{LearningRate: 0.5}, 600, 1e-3)
}

func TestRMSPropConverges(t *testing.T) {
	trainToConvergence(t, &train.RMSProp{LearningRate: 0.05, Decay: 0.9}, 900, 5e-3)
}

func TestAdadeltaConverges(t *testing.T) {
	trainToConvergence(t, &train.Adadelta{LearningRate: 1, Rho: 0.95}, 3000, 0.02)
}

func TestAdamConverges(t *testing.T) {
	trainToConvergence(t, &train.Adam{LearningRate: 0.1}, 500, 1e-3)
}

func TestSGDSparseUpdatesOnlyTouchGatheredRows(t *testing.T) {
	g := tf.NewGraph()
	emb := g.NewVariableFromTensor("emb", tf.FromFloat32s(tf.Shape{4, 2}, []float32{
		1, 1, 2, 2, 3, 3, 4, 4,
	}))
	idx := g.Const([]int32{1})
	rows := g.Gather(emb.Value(), idx)
	loss := g.Sum(rows, nil, false) // d/d emb[1] = 1
	opt := &train.GradientDescent{LearningRate: 0.5}
	trainOp, err := opt.Minimize(g, loss, []*tf.Variable{emb})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(trainOp); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Fetch1(nil, emb.Value())
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 1, 1.5, 1.5, 3, 3, 4, 4} // only row 1 moved
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("after sparse SGD emb = %v, want %v", out.Float32s(), want)
		}
	}
}

// TestMomentumSparseUpdatesOnlyTouchGatheredRows: Momentum's sparse path
// keeps lazy velocity semantics — only gathered rows accumulate velocity
// and move; untouched rows keep both their parameters and their slot state
// bit-identical.
func TestMomentumSparseUpdatesOnlyTouchGatheredRows(t *testing.T) {
	g := tf.NewGraph()
	emb := g.NewVariableFromTensor("emb", tf.FromFloat32s(tf.Shape{4, 2}, []float32{
		1, 1, 2, 2, 3, 3, 4, 4,
	}))
	idx := g.Const([]int32{1})
	rows := g.Gather(emb.Value(), idx)
	loss := g.Sum(rows, nil, false) // d/d emb[1] = 1
	opt := &train.Momentum{LearningRate: 0.5, Decay: 0.9}
	trainOp, err := opt.Minimize(g, loss, []*tf.Variable{emb})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	const steps = 2
	for i := 0; i < steps; i++ {
		if err := sess.RunTargets(trainOp); err != nil {
			t.Fatal(err)
		}
	}
	// Replay the velocity recurrence in float32, like the graph computes it:
	// v ← v·decay + grad; row ← row − v·lr.
	var vel, want1 float32 = 0, 2
	for i := 0; i < steps; i++ {
		vel = vel*0.9 + 1
		want1 -= vel * 0.5
	}
	out, err := sess.Fetch1(nil, emb.Value())
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 1, want1, want1, 3, 3, 4, 4}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("after sparse Momentum emb = %v, want %v", out.Float32s(), want)
		}
	}
}

func TestAdagradSparseAccumulatorStaysSparse(t *testing.T) {
	g := tf.NewGraph()
	emb := g.NewVariableFromTensor("emb", tf.FromFloat32s(tf.Shape{3, 1}, []float32{1, 1, 1}))
	idx := g.Const([]int32{2})
	loss := g.Sum(g.Gather(emb.Value(), idx), nil, false)
	opt := &train.Adagrad{LearningRate: 1, InitialAccum: 0.0001}
	trainOp, err := opt.Minimize(g, loss, []*tf.Variable{emb})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(trainOp); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Fetch1(nil, emb.Value())
	if err != nil {
		t.Fatal(err)
	}
	if out.FloatAt(0) != 1 || out.FloatAt(1) != 1 {
		t.Errorf("untouched rows moved: %v", out.Float32s())
	}
	if out.FloatAt(2) >= 1 {
		t.Errorf("gathered row did not move: %v", out.Float32s())
	}
}

func TestClipByGlobalNorm(t *testing.T) {
	g := tf.NewGraph()
	x := g.NewVariableFromTensor("x", tf.FromFloat32s(tf.Shape{2}, []float32{3, 4}))
	loss := g.Mul(g.Const(float32(100)), g.Sum(g.Square(x.Value()), nil, false))
	grads, err := g.Gradients([]tf.Output{loss}, []tf.Output{x.Value()})
	if err != nil {
		t.Fatal(err)
	}
	clipped, err := train.ClipByGlobalNorm(g, grads, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Fetch1(nil, clipped[0].Dense)
	if err != nil {
		t.Fatal(err)
	}
	norm := math.Hypot(out.FloatAt(0), out.FloatAt(1))
	if math.Abs(norm-1) > 1e-4 {
		t.Errorf("clipped norm = %g, want 1", norm)
	}
	// Direction preserved: grad ∝ (3, 4).
	if math.Abs(out.FloatAt(0)/out.FloatAt(1)-0.75) > 1e-4 {
		t.Errorf("clip changed direction: %v", out.Float32s())
	}
}

func TestSaverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := tf.NewGraph()
	a := g.NewVariableFromTensor("a", tf.FromFloat32s(tf.Shape{2}, []float32{1, 2}))
	b := g.NewVariableFromTensor("b", tf.Scalar(7))
	saver, err := train.NewSaver(g, []*tf.Variable{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model.ckpt")
	if err := saver.Save(sess, path); err != nil {
		t.Fatal(err)
	}
	// Clobber, then restore.
	if err := sess.RunTargets(a.Assign(g.Const([]float32{9, 9}))); err != nil {
		t.Fatal(err)
	}
	if err := saver.Restore(sess, path); err != nil {
		t.Fatal(err)
	}
	av, err := sess.Fetch1(nil, a.Value())
	if err != nil {
		t.Fatal(err)
	}
	if av.FloatAt(0) != 1 || av.FloatAt(1) != 2 {
		t.Errorf("restored a = %v", av)
	}
}

func TestSaverRetentionAndLatest(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "ckpt")
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", tf.Scalar(0))
	saver, err := train.NewSaver(g, []*tf.Variable{v})
	if err != nil {
		t.Fatal(err)
	}
	saver.KeepCheckpoints = 2
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 5; step++ {
		if err := sess.RunTargets(v.Assign(g.Const(float32(step)))); err != nil {
			t.Fatal(err)
		}
		if _, err := saver.SaveStep(sess, prefix, step); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(prefix + "-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("retention kept %d checkpoints, want 2: %v", len(files), files)
	}
	// Fresh session ("restart after failure", §4.3) restores the latest.
	sess2, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	found, err := saver.RestoreLatest(sess2, prefix)
	if err != nil || !found {
		t.Fatalf("RestoreLatest: found=%t err=%v", found, err)
	}
	vv, err := sess2.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	if vv.FloatAt(0) != 5 {
		t.Errorf("restored v = %v, want 5", vv)
	}
	// Missing prefix reports not found without error.
	found, err = saver.RestoreLatest(sess2, filepath.Join(dir, "nope"))
	if err != nil || found {
		t.Errorf("missing checkpoint: found=%t err=%v", found, err)
	}
}

func TestSaverSupportsFineTuningAcrossGraphs(t *testing.T) {
	// Transfer learning (§4.3): train a "base" variable in one graph,
	// restore it into a different graph that adds a new head.
	dir := t.TempDir()
	path := filepath.Join(dir, "pretrained.ckpt")
	{
		g := tf.NewGraph()
		base := g.NewVariableFromTensor("base", tf.FromFloat32s(tf.Shape{2}, []float32{5, 6}))
		saver, err := train.NewSaver(g, []*tf.Variable{base})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := tf.NewSession(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.RunTargets(g.InitOp()); err != nil {
			t.Fatal(err)
		}
		if err := saver.Save(sess, path); err != nil {
			t.Fatal(err)
		}
	}
	g2 := tf.NewGraph()
	base := g2.NewVariableFromTensor("base", tf.FromFloat32s(tf.Shape{2}, []float32{0, 0}))
	head := g2.NewVariableFromTensor("head", tf.Scalar(1))
	saver2, err := train.NewSaver(g2, []*tf.Variable{base})
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := tf.NewSession(g2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.RunTargets(g2.InitOp()); err != nil {
		t.Fatal(err)
	}
	if err := saver2.Restore(sess2, path); err != nil {
		t.Fatal(err)
	}
	bv, err := sess2.Fetch1(nil, base.Value())
	if err != nil {
		t.Fatal(err)
	}
	if bv.FloatAt(0) != 5 || bv.FloatAt(1) != 6 {
		t.Errorf("fine-tune restore = %v", bv)
	}
	hv, err := sess2.Fetch1(nil, head.Value())
	if err != nil {
		t.Fatal(err)
	}
	if hv.FloatAt(0) != 1 {
		t.Errorf("head variable clobbered: %v", hv)
	}
}

func TestQueueRunnerFillsPipeline(t *testing.T) {
	g := tf.NewGraph()
	q := g.FIFOQueue("input", 8, []tf.DType{tf.Float32}, []tf.Shape{{}})
	counter := g.NewVariableFromTensor("counter", tf.Scalar(0))
	next := counter.AssignAdd(g.Const(float32(1)))
	enq := q.Enqueue(next.Output(0))
	deq := q.Dequeue()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	coord := train.NewCoordinator()
	qr := train.NewQueueRunner(q, enq)
	qr.Start(sess, coord)

	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		out, err := sess.Fetch1(nil, deq[0])
		if err != nil {
			t.Fatal(err)
		}
		seen[out.FloatAt(0)] = true
	}
	coord.RequestStop(nil)
	if err := coord.Join(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Errorf("dequeued %d distinct values, want 20", len(seen))
	}
}

func TestCoordinatorCollectsFirstError(t *testing.T) {
	c := train.NewCoordinator()
	c.Go(func() error { return os.ErrNotExist })
	c.Go(func() error { <-c.StopChan(); return nil })
	if err := c.Join(); err != os.ErrNotExist {
		t.Errorf("Join = %v, want ErrNotExist", err)
	}
	if !c.ShouldStop() {
		t.Error("coordinator should report stopped")
	}
}

// TestOptimizerTrainsWhileLoopModel trains through control flow (§4.1): the
// prediction iterates s ← tanh(w·s) for a fixed trip count inside tf.While,
// the loss is (s_T − target)², and plain SGD must reduce it monotonically
// enough to converge. This exercises the whole loop-gradient pipeline —
// trip-count counter, stack-saved intermediates, invariant accumulation —
// under a real optimizer update.
func TestOptimizerTrainsWhileLoopModel(t *testing.T) {
	g := tf.NewGraph()
	w := g.NewVariableFromTensor("w", tf.FromFloat64s(tf.Shape{}, []float64{0.2}))
	x := g.Const(float64(0.9))
	target := g.Const(float64(0.6))
	wVal := w.Value() // read outside the loop; captured as a loop invariant
	outs := g.While(
		[]tf.Output{g.Const(int32(0)), x}, nil,
		func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], g.Const(int32(4))) },
		func(vars, _ []tf.Output) []tf.Output {
			return []tf.Output{
				g.Add(vars[0], g.Const(int32(1))),
				g.Tanh(g.Mul(wVal, vars[1])),
			}
		},
	)
	loss := g.Square(g.Sub(outs[1], target))
	opt := &train.GradientDescent{LearningRate: 0.5}
	trainOp, err := opt.Minimize(g, loss, []*tf.Variable{w})
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
	var first, last float64
	const steps = 12
	for i := 0; i < steps; i++ {
		out, err := sess.Run(nil, []tf.Output{loss}, trainOp)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out[0].FloatAt(0)
		}
		last = out[0].FloatAt(0)
	}
	if !(last < first/10) {
		t.Errorf("while-loop model did not train: loss %g → %g over %d steps", first, last, steps)
	}
	if last > 1e-3 {
		t.Errorf("while-loop model loss after %d steps = %g, want <= 1e-3", steps, last)
	}
}

// TestOptimizedTrainingGraphRoundTripsThroughGraphDef: after the pass
// pipeline has rewired a training graph — consumers of the fused-away Relu
// now read a FusedMatMul created after them — Marshal must still produce a
// GraphDef that Unmarshal accepts, and the reconstructed graph must train
// to the same losses. ToDef once took "input from a later-created node" to
// mean "loop back edge" and serialized such a Relu with no inputs.
func TestOptimizedTrainingGraphRoundTripsThroughGraphDef(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{4, 3})
	y := g.Placeholder("y", tf.Float32, tf.Shape{4, 1})
	w1 := g.NewVariableFromTensor("w1", tf.FromFloat32s(tf.Shape{3, 2}, []float32{0.5, -0.25, 0.75, 1, -0.5, 0.25}))
	b1 := g.NewVariableFromTensor("b1", tf.FromFloat32s(tf.Shape{2}, []float32{0.1, 0.2}))
	w2 := g.NewVariableFromTensor("w2", tf.FromFloat32s(tf.Shape{2, 1}, []float32{1, -1}))
	h := g.Relu(g.BiasAdd(g.MatMul(x, w1.Value()), b1.Value()))
	loss := g.Mean(g.Square(g.Sub(g.MatMul(h, w2.Value()), y)), nil, false)
	trainOp, err := (&train.Momentum{LearningRate: 0.05, Decay: 0.9}).Minimize(g, loss, []*tf.Variable{w1, b1, w2})
	if err != nil {
		t.Fatal(err)
	}
	init := g.InitOp()
	feeds := map[graph.Endpoint]*tensor.Tensor{
		x.Unwrap(): tf.FromFloat32s(tf.Shape{4, 3}, []float32{1, 2, 3, -1, 0, 1, 2, -2, 0.5, 0, 1, -1}),
		y.Unwrap(): tf.FromFloat32s(tf.Shape{4, 1}, []float32{1, 0, -1, 2}),
	}
	// steps trains gr for a few steps, addressing nodes by name.
	steps := func(gr *graph.Graph) []float64 {
		t.Helper()
		sess := core.NewSession(gr, core.Options{Optimize: true})
		defer sess.Close()
		byName := map[graph.Endpoint]*tensor.Tensor{}
		for ep, v := range feeds {
			byName[gr.ByName(ep.Node.Name()).Out(ep.Index)] = v
		}
		if _, err := sess.Run(nil, nil, []*graph.Node{gr.ByName(init.Name())}); err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for i := 0; i < 5; i++ {
			out, err := sess.Run(byName, []graph.Endpoint{gr.ByName(loss.Op().Name()).Out(0)},
				[]*graph.Node{gr.ByName(trainOp.Name())})
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, out[0].FloatAt(0))
		}
		return losses
	}
	want := steps(g.Raw()) // the session's first step runs the pipeline over g in place
	fused := false
	for _, n := range g.Raw().Nodes() {
		fused = fused || n.Op() == "FusedMatMul"
	}
	if !fused {
		t.Fatal("the pipeline fused nothing; the test no longer exercises a rewired graph")
	}
	data, err := g.Raw().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := graph.Unmarshal(data)
	if err != nil {
		t.Fatalf("optimized graph does not survive Marshal/Unmarshal: %v", err)
	}
	got := steps(back)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: reconstructed graph loss %.9g, original %.9g", i, got[i], want[i])
		}
	}
	if !(want[4] < want[0]) {
		t.Errorf("training did not reduce the loss: %v", want)
	}
}
