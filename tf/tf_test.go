package tf_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/graph"
	"repro/tf"
)

func newSession(t *testing.T, g *tf.Graph) *tf.Session {
	t.Helper()
	s, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConstArithmetic(t *testing.T) {
	g := tf.NewGraph()
	x := g.Const([]float32{1, 2, 3})
	y := g.Const([]float32{10, 20, 30})
	z := g.Add(g.Mul(x, y), g.Const(float32(1)))
	s := newSession(t, g)
	out, err := s.Fetch1(nil, z)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 41, 91}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("z = %v, want %v", out.Float32s(), want)
		}
	}
}

func TestConstConversions(t *testing.T) {
	g := tf.NewGraph()
	cases := []struct {
		v  any
		dt tf.DType
	}{
		{float32(1), tf.Float32}, {float64(1), tf.Float64},
		{int(1), tf.Int32}, {int32(1), tf.Int32}, {int64(1), tf.Int64},
		{true, tf.Bool}, {"s", tf.String},
		{[]float32{1}, tf.Float32}, {[]int64{1}, tf.Int64},
		{[][]float32{{1, 2}, {3, 4}}, tf.Float32},
	}
	for _, c := range cases {
		out := g.Const(c.v)
		if !out.Valid() || out.DType() != c.dt {
			t.Errorf("Const(%T) dtype = %v, want %v", c.v, out.DType(), c.dt)
		}
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	// 2-D constant has the right shape.
	m := g.Const([][]float32{{1, 2, 3}, {4, 5, 6}})
	if !m.Shape().Equal(tf.Shape{2, 3}) {
		t.Errorf("matrix const shape = %v", m.Shape())
	}
	// Unsupported type records an error.
	bad := tf.NewGraph()
	bad.Const(struct{}{})
	if bad.Err() == nil {
		t.Error("Const of struct should record an error")
	}
}

func TestGraphErrorPropagation(t *testing.T) {
	g := tf.NewGraph()
	x := g.Const([]float32{1, 2})
	y := g.Const([]float32{1, 2, 3})
	g.MatMul(x, y) // rank error
	if g.Err() == nil {
		t.Fatal("expected a recorded error")
	}
	if _, err := tf.NewSession(g); err == nil {
		t.Fatal("NewSession should refuse a broken graph")
	}
}

func TestVariableTrainingLoopSGDByHand(t *testing.T) {
	// Minimize (w - 3)² with manual gradient descent updates.
	g := tf.NewGraph()
	w := g.NewVariableFromTensor("w", tf.Scalar(0))
	target := g.Const(float32(3))
	diff := g.Sub(w.Value(), target)
	grad := g.Mul(g.Const(float32(2)), diff)
	lr := g.Const(float32(0.1))
	update := w.AssignSub(g.Mul(lr, grad))
	loss := g.Square(diff)

	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.RunTargets(update); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Fetch1(nil, loss)
	if err != nil {
		t.Fatal(err)
	}
	if out.FloatAt(0) > 1e-6 {
		t.Errorf("loss after training = %g", out.FloatAt(0))
	}
}

func TestAutodiffLinearRegression(t *testing.T) {
	// Learn y = 2x + 1 from synthetic data using tf.Gradients.
	g := tf.NewGraph()
	g.SetSeed(42)
	x := g.Placeholder("x", tf.Float32, tf.Shape{8, 1})
	yTrue := g.Placeholder("y", tf.Float32, tf.Shape{8, 1})
	w := g.NewVariableFromTensor("w", tf.Scalar(0))
	b := g.NewVariableFromTensor("b", tf.Scalar(0))
	pred := g.Add(g.Mul(x, w.Value()), b.Value())
	loss := g.Mean(g.Square(g.Sub(pred, yTrue)), nil, false)

	grads, err := g.DenseGradients([]tf.Output{loss}, []tf.Output{w.Value(), b.Value()})
	if err != nil {
		t.Fatal(err)
	}
	lr := g.Const(float32(0.05))
	upW := w.AssignSub(g.Mul(lr, grads[0]))
	upB := b.AssignSub(g.Mul(lr, grads[1]))
	step := g.Group("train", upW, upB)

	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	rng := tf.NewRNG(1)
	var lastLoss float64
	for i := 0; i < 300; i++ {
		xs := rng.Uniform(tf.Float32, tf.Shape{8, 1}, -1, 1)
		ys := tf.NewTensor(tf.Float32, tf.Shape{8, 1})
		for j := 0; j < 8; j++ {
			ys.Float32s()[j] = 2*xs.Float32s()[j] + 1
		}
		out, err := s.Run(map[tf.Output]*tf.Tensor{x: xs, yTrue: ys}, []tf.Output{loss}, step)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = out[0].FloatAt(0)
	}
	if lastLoss > 1e-3 {
		t.Errorf("regression did not converge: loss %g", lastLoss)
	}
	wv, _ := s.Fetch1(nil, w.Value())
	bv, _ := s.Fetch1(nil, b.Value())
	if math.Abs(wv.FloatAt(0)-2) > 0.05 || math.Abs(bv.FloatAt(0)-1) > 0.05 {
		t.Errorf("learned w=%g b=%g, want 2 and 1", wv.FloatAt(0), bv.FloatAt(0))
	}
}

func TestCondExecutesOnlyTakenBranch(t *testing.T) {
	g := tf.NewGraph()
	pred := g.Placeholder("pred", tf.Bool, tf.Shape{})
	x := g.Const(float32(10))
	outs := g.Cond(pred, []tf.Output{x},
		func(ins []tf.Output) []tf.Output { return []tf.Output{g.Mul(ins[0], g.Const(float32(2)))} },
		func(ins []tf.Output) []tf.Output { return []tf.Output{g.Neg(ins[0])} },
	)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	outT, err := s.Fetch1(map[tf.Output]*tf.Tensor{pred: tf.ScalarBool(true)}, outs[0])
	if err != nil {
		t.Fatal(err)
	}
	if outT.FloatAt(0) != 20 {
		t.Errorf("then branch = %v, want 20", outT)
	}
	outF, err := s.Fetch1(map[tf.Output]*tf.Tensor{pred: tf.ScalarBool(false)}, outs[0])
	if err != nil {
		t.Fatal(err)
	}
	if outF.FloatAt(0) != -10 {
		t.Errorf("else branch = %v, want -10", outF)
	}
}

func TestCondBranchSideEffectsAreGated(t *testing.T) {
	// A variable update inside one branch must only run when taken.
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", tf.Scalar(0))
	pred := g.Placeholder("pred", tf.Bool, tf.Shape{})
	one := g.Const(float32(1))
	outs := g.Cond(pred, []tf.Output{one},
		func(ins []tf.Output) []tf.Output {
			up := v.AssignAdd(ins[0])
			return []tf.Output{g.IdentityWithControl(ins[0], up)}
		},
		func(ins []tf.Output) []tf.Output { return []tf.Output{ins[0]} },
	)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	run := func(p bool) {
		if _, err := s.Fetch1(map[tf.Output]*tf.Tensor{pred: tf.ScalarBool(p)}, outs[0]); err != nil {
			t.Fatal(err)
		}
	}
	run(true)
	run(false)
	run(true)
	got, err := s.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	if got.FloatAt(0) != 2 {
		t.Errorf("v = %v after 2 true branches, want 2", got)
	}
}

func TestWhileLoopCountsIterations(t *testing.T) {
	// while (i < 10) { i += 1; acc *= 2 }
	g := tf.NewGraph()
	i0 := g.Const(float32(0))
	acc0 := g.Const(float32(1))
	limit := g.Const(float32(10))
	outs := g.While(
		[]tf.Output{i0, acc0},
		[]tf.Output{limit},
		func(vars, invs []tf.Output) tf.Output { return g.Less(vars[0], invs[0]) },
		func(vars, invs []tf.Output) []tf.Output {
			return []tf.Output{
				g.Add(vars[0], g.Const(float32(1))),
				g.Mul(vars[1], g.Const(float32(2))),
			}
		},
	)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	out, err := s.Run(nil, outs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 10 {
		t.Errorf("final i = %v, want 10", out[0])
	}
	if out[1].FloatAt(0) != 1024 {
		t.Errorf("final acc = %v, want 2^10", out[1])
	}
}

func TestWhileLoopZeroIterations(t *testing.T) {
	g := tf.NewGraph()
	i0 := g.Const(float32(5))
	outs := g.While(
		[]tf.Output{i0}, nil,
		func(vars, invs []tf.Output) tf.Output { return g.Less(vars[0], g.Const(float32(0))) },
		func(vars, invs []tf.Output) []tf.Output {
			return []tf.Output{g.Add(vars[0], g.Const(float32(1)))}
		},
	)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	out, err := s.Run(nil, outs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 5 {
		t.Errorf("zero-iteration loop result = %v, want untouched 5", out[0])
	}
}

func TestNestedWhileLoops(t *testing.T) {
	// outer: for i in 0..3 { inner: for j in 0..2 { total += 1 } }
	g := tf.NewGraph()
	zero := g.Const(float32(0))
	outs := g.While(
		[]tf.Output{g.Const(float32(0)), zero}, nil,
		func(vars, invs []tf.Output) tf.Output { return g.Less(vars[0], g.Const(float32(3))) },
		func(vars, invs []tf.Output) []tf.Output {
			inner := g.While(
				[]tf.Output{g.ZerosLike(vars[0]), vars[1]}, nil,
				func(iv, _ []tf.Output) tf.Output { return g.Less(iv[0], g.Const(float32(2))) },
				func(iv, _ []tf.Output) []tf.Output {
					return []tf.Output{
						g.Add(iv[0], g.Const(float32(1))),
						g.Add(iv[1], g.Const(float32(1))),
					}
				},
			)
			return []tf.Output{g.Add(vars[0], g.Const(float32(1))), inner[1]}
		},
	)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	out, err := s.Run(nil, outs)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].FloatAt(0) != 6 {
		t.Errorf("nested loop total = %v, want 6", out[1])
	}
}

func TestWhileLoopWithFedPlaceholderCapture(t *testing.T) {
	// Regression: a placeholder captured into the loop frame makes its
	// Enter a root of the compiled step (its only input is fed); the
	// executor must still run that Enter in the child frame or the loop
	// deadlocks and the Exit is never produced.
	g := tf.NewGraph()
	limit := g.Placeholder("limit", tf.Float32, tf.Shape{})
	step := g.Placeholder("step", tf.Float32, tf.Shape{})
	outs := g.While(
		[]tf.Output{g.Const(float32(0)), g.Const(float32(0))}, nil,
		func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], limit) },
		func(vars, _ []tf.Output) []tf.Output {
			i := g.Add(vars[0], step) // fed value used in the body too
			return []tf.Output{i, g.Add(vars[1], i)}
		},
	)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	// sum of 1..10: both feeds cross into the frame via constant Enters.
	out, err := s.Run(map[tf.Output]*tf.Tensor{
		limit: tf.Scalar(10),
		step:  tf.Scalar(1),
	}, outs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 10 || out[1].FloatAt(0) != 55 {
		t.Errorf("loop results = %v, %v; want 10, 55", out[0], out[1])
	}
	// Re-run with different feeds: the cached executable must not pin the
	// first step's captured values.
	out, err = s.Run(map[tf.Output]*tf.Tensor{
		limit: tf.Scalar(6),
		step:  tf.Scalar(2),
	}, outs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 6 || out[1].FloatAt(0) != 12 {
		t.Errorf("second run results = %v, %v; want 6, 12", out[0], out[1])
	}
}

func TestQueueRoundTripThroughGraph(t *testing.T) {
	g := tf.NewGraph()
	q := g.FIFOQueue("q", 10, []tf.DType{tf.Float32}, []tf.Shape{{2}})
	val := g.Placeholder("v", tf.Float32, tf.Shape{2})
	enq := q.Enqueue(val)
	deq := q.Dequeue()
	size := q.Size()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	for i := 0; i < 3; i++ {
		feed := tf.FromFloat32s(tf.Shape{2}, []float32{float32(i), float32(i * 10)})
		if _, err := s.Run(map[tf.Output]*tf.Tensor{val: feed}, nil, enq); err != nil {
			t.Fatal(err)
		}
	}
	sz, err := s.Fetch1(nil, size)
	if err != nil {
		t.Fatal(err)
	}
	if sz.IntAt(0) != 3 {
		t.Errorf("queue size = %v, want 3", sz)
	}
	// FIFO order.
	for i := 0; i < 3; i++ {
		out, err := s.Fetch1(nil, deq[0])
		if err != nil {
			t.Fatal(err)
		}
		if out.FloatAt(0) != float64(i) {
			t.Errorf("dequeue %d = %v", i, out)
		}
	}
}

func TestQueueDequeueManyBatches(t *testing.T) {
	g := tf.NewGraph()
	q := g.FIFOQueue("q", 10, []tf.DType{tf.Float32}, []tf.Shape{{}})
	val := g.Placeholder("v", tf.Float32, tf.Shape{4})
	enqMany := q.EnqueueMany(val)
	batch := q.DequeueMany(4)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if !batch[0].Shape().Equal(tf.Shape{4}) {
		t.Errorf("DequeueMany inferred shape %v", batch[0].Shape())
	}
	s := newSession(t, g)
	feed := tf.FromFloat32s(tf.Shape{4}, []float32{5, 6, 7, 8})
	if _, err := s.Run(map[tf.Output]*tf.Tensor{val: feed}, nil, enqMany); err != nil {
		t.Fatal(err)
	}
	out, err := s.Fetch1(nil, batch[0])
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(feed) {
		t.Errorf("DequeueMany = %v, want %v", out, feed)
	}
}

func TestReductionAndShapeOps(t *testing.T) {
	g := tf.NewGraph()
	x := g.Const([][]float32{{1, 2, 3}, {4, 5, 6}})
	mean := g.Mean(x, nil, false)
	rowMax := g.Max(x, []int{1}, false)
	am := g.ArgMax(x, 1)
	tr := g.Transpose(x, nil)
	re := g.Reshape(x, tf.Shape{3, 2})
	sl := g.Slice(x, []int{0, 1}, []int{2, 2})
	oh := g.OneHot(g.Const([]int32{0, 2}), 3, tf.Float32)
	s := newSession(t, g)
	out, err := s.Run(nil, []tf.Output{mean, rowMax, am, tr, re, sl, oh})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 3.5 {
		t.Errorf("mean = %v", out[0])
	}
	if out[1].FloatAt(1) != 6 {
		t.Errorf("rowMax = %v", out[1])
	}
	if out[2].Int64s()[0] != 2 {
		t.Errorf("argmax = %v", out[2])
	}
	if !out[3].Shape().Equal(tf.Shape{3, 2}) || !out[4].Shape().Equal(tf.Shape{3, 2}) {
		t.Errorf("transpose/reshape shapes: %v %v", out[3].Shape(), out[4].Shape())
	}
	if out[5].FloatAt(0) != 2 {
		t.Errorf("slice = %v", out[5])
	}
	if out[6].FloatAt(0) != 1 || out[6].FloatAt(5) != 1 {
		t.Errorf("one-hot = %v", out[6])
	}
}

func TestRandomOpsAreSeededPerNode(t *testing.T) {
	g := tf.NewGraph()
	g.SetSeed(7)
	a := g.RandomNormal(tf.Float32, tf.Shape{16}, 0, 1)
	b := g.RandomNormal(tf.Float32, tf.Shape{16}, 0, 1)
	s := newSession(t, g)
	out, err := s.Run(nil, []tf.Output{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Equal(out[1]) {
		t.Error("two random nodes produced identical streams")
	}
	// Re-running the same node in a fresh session (fresh RNG state)
	// reproduces the stream.
	s2 := newSession(t, g)
	out2, err := s2.Run(nil, []tf.Output{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(out2[0]) || !out[1].Equal(out2[1]) {
		t.Error("random streams are not reproducible across sessions")
	}
}

func TestGatherAndSparseGradient(t *testing.T) {
	g := tf.NewGraph()
	emb := g.NewVariableFromTensor("emb", tf.FromFloat32s(tf.Shape{4, 2}, []float32{
		1, 1, 2, 2, 3, 3, 4, 4,
	}))
	idx := g.Const([]int32{1, 3})
	rows := g.Gather(emb.Value(), idx)
	loss := g.Sum(rows, nil, false)
	grads, err := g.Gradients([]tf.Output{loss}, []tf.Output{emb.Value()})
	if err != nil {
		t.Fatal(err)
	}
	if grads[0].Sparse == nil {
		t.Fatal("Gather gradient should be sparse")
	}
	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(nil, []tf.Output{rows, grads[0].Sparse.Values})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 2 || out[0].FloatAt(2) != 4 {
		t.Errorf("gathered = %v", out[0])
	}
	for i := 0; i < out[1].NumElements(); i++ {
		if out[1].FloatAt(i) != 1 {
			t.Errorf("sparse grad values = %v", out[1])
		}
	}
}

func TestSelectAndComparisons(t *testing.T) {
	g := tf.NewGraph()
	x := g.Const([]float32{1, 5, 3})
	y := g.Const([]float32{4, 2, 3})
	out := g.Select(g.Greater(x, y), x, y) // element-wise max
	s := newSession(t, g)
	got, err := s.Fetch1(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 5, 3}
	for i, v := range got.Float32s() {
		if v != want[i] {
			t.Fatalf("select = %v, want %v", got.Float32s(), want)
		}
	}
}

// TestSessionCloseReleasesExecutables: Close stops the pool workers of every
// step the session compiled and forgets the steps, so a closed session's
// executables — their pooled step states and free lists with them — are
// garbage as soon as the collector drops them, not once the workers time out
// idle. That takes two collections: the runtime keeps a sync.Pool used since
// the last one, and with it the executable holding it, as a victim through
// the first. Goroutines are compared by id: an earlier test's idle workers
// may exit meanwhile, but none this session started may be left.
func TestSessionCloseReleasesExecutables(t *testing.T) {
	before := goroutineIDs()
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{64})
	// Independent branches, so a step queues work for the pool.
	var branches []tf.Output
	for i := 0; i < 8; i++ {
		branches = append(branches, g.Tanh(g.Mul(x, g.Const(float32(i)))))
	}
	sum := g.AddN(branches...)
	s := newSession(t, g)
	feeds := map[tf.Output]*tf.Tensor{x: tf.NewTensor(tf.Float32, tf.Shape{64})}
	for i := 0; i < 20; i++ {
		if _, err := s.Fetch1(feeds, sum); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := s.Core().Executable([]graph.Endpoint{x.Unwrap()}, []graph.Endpoint{sum.Unwrap()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	compiled := weak.Make(ex)
	ex = nil
	if started := newGoroutines(before); started == 0 {
		t.Fatal("no pool worker started while stepping")
	}
	s.Close()
	runtime.GC()
	runtime.GC()
	if compiled.Value() != nil {
		t.Error("a closed session's executable is still reachable after two collections")
	}
	if left := newGoroutines(before); left != 0 {
		t.Errorf("%d goroutines started while stepping are still running after Close", left)
	}
}

// goroutineIDs returns the ids of the running goroutines.
func goroutineIDs() map[string]bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	ids := map[string]bool{}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "goroutine "); ok {
			ids[strings.Fields(rest)[0]] = true
		}
	}
	return ids
}

// newGoroutines counts the running goroutines whose ids are not in before.
func newGoroutines(before map[string]bool) int {
	n := 0
	for id := range goroutineIDs() {
		if !before[id] {
			n++
		}
	}
	return n
}
