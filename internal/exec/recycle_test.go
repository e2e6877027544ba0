package exec_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/tf"
)

// negChain builds x → Neg → Neg → ... (depth times) over a [rows, 64]
// placeholder and fetches the last.
func negChain(t *testing.T, depth, rows int) (*graph.Graph, graph.Endpoint, graph.Endpoint) {
	t.Helper()
	g := graph.New()
	ph := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{rows, 64}},
	})
	cur := ph.Out(0)
	for i := 0; i < depth; i++ {
		cur = addNode(t, g, "Neg", []graph.Endpoint{cur}, graph.NodeArgs{}).Out(0)
	}
	return g, ph.Out(0), cur
}

// ramp returns a [rows, cols] float32 tensor of distinct small values offset
// by base.
func ramp(rows, cols int, base float32) *tensor.Tensor {
	v := make([]float32, rows*cols)
	for i := range v {
		v[i] = base + float32(i%97)/128
	}
	return tensor.FromFloat32s(tensor.Shape{rows, cols}, v)
}

// leastStepBytes runs a step n times and returns the fewest bytes any one
// run after the first few allocated: the steady state, since a run that had
// to rebuild pooled state (-race drops some sync.Pool Puts) or ran beside a
// collection allocates more, never less.
func leastStepBytes(t *testing.T, n int, run func() error) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 4 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// TestRecycleChainReuse: in a chain of four Negs the three unfetched outputs
// are recycled, so a steady-state Run allocates the fetched tensor and no
// intermediate, and no step reads a value a recycled buffer held before.
func TestRecycleChainReuse(t *testing.T) {
	const rows = 64
	g, feed, fetch := negChain(t, 4, rows)
	ex, err := exec.Compile(g, []graph.Endpoint{feed}, []graph.Endpoint{fetch}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.PlannedBuffers(); got != 3 {
		t.Errorf("PlannedBuffers = %d, want 3 (the fetched Neg is never recycled)", got)
	}
	rm := device.NewResourceManager()
	const steps = 24
	feeds := make([]*tensor.Tensor, steps)
	for i := range feeds {
		feeds[i] = ramp(rows, 64, float32(i))
	}
	step := 0
	least := leastStepBytes(t, steps, func() error {
		x := feeds[step]
		step++
		out, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{x}, Resources: rm, StepID: int64(step)})
		if err != nil {
			return err
		}
		if got, want := out[0].FloatAt(5), x.FloatAt(5); got != want {
			return fmt.Errorf("step %d: fetch = %v, want %v (a recycled buffer leaked)", step, got, want)
		}
		return nil
	})
	tensorBytes := uint64(rows * 64 * 4)
	t.Logf("steady-state Run allocates %d bytes; one tensor is %d", least, tensorBytes)
	if least >= 2*tensorBytes {
		t.Errorf("a Run allocates %d bytes, ≥ 2 tensors of %d: an intermediate is no longer recycled", least, tensorBytes)
	}
}

// TestRecycleSkipsRetainingConsumers: an output consumed by Assign (a
// retaining, stateful kernel) is never recycled, or the variable would alias
// a buffer a later node rewrites.
func TestRecycleSkipsRetainingConsumers(t *testing.T) {
	g := graph.New()
	ph := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	n1 := addNode(t, g, "Neg", []graph.Endpoint{ph.Out(0)}, graph.NodeArgs{})
	v := addNode(t, g, "Variable", nil, graph.NodeArgs{
		Name: "v", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	assign := addNode(t, g, "Assign", []graph.Endpoint{v.Out(0), n1.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, []graph.Endpoint{ph.Out(0)}, nil, []*graph.Node{assign}, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.PlannedBuffers(); got != 0 {
		t.Errorf("PlannedBuffers = %d, want 0 (Assign retains its input)", got)
	}
}

// TestRecycleConcurrentSteps checks step isolation: concurrent Runs each
// borrow their own pooled step, so their free lists never mix.
func TestRecycleConcurrentSteps(t *testing.T) {
	g, feed, fetch := negChain(t, 6, 1)
	ex, err := exec.Compile(g, []graph.Endpoint{feed}, []graph.Endpoint{fetch}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlannedBuffers() == 0 {
		t.Fatal("the chain recycles nothing; test is vacuous")
	}
	rm := device.NewResourceManager()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				want := float64(w*iters + i + 1)
				x := ramp(1, 64, float32(want))
				out, err := ex.Run(exec.RunParams{
					FeedValues: []*tensor.Tensor{x},
					Resources:  rm,
					StepID:     int64(want),
				})
				if err != nil {
					errs <- err
					return
				}
				if got := out[0].FloatAt(0); got != want {
					errs <- fmt.Errorf("worker %d iter %d: got %v, want %v", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecycleMatMulChain runs a small dense model shape (FusedMatMul
// feeding a reduction) through recycled buffers and checks numerics against
// the first step on every subsequent step.
func TestRecycleMatMulChain(t *testing.T) {
	g := graph.New()
	ph := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{4, 3}},
	})
	w := addNode(t, g, "Const", nil, graph.NodeArgs{
		Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{3, 2}, []float32{1, 2, 3, 4, 5, 6})},
	})
	b := addNode(t, g, "Const", nil, graph.NodeArgs{
		Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{2}, []float32{-1, 1})},
	})
	fm := addNode(t, g, "FusedMatMul", []graph.Endpoint{ph.Out(0), w.Out(0), b.Out(0)},
		graph.NodeArgs{Attrs: map[string]any{"activation": "Relu"}})
	sum := addNode(t, g, "Sum", []graph.Endpoint{fm.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, []graph.Endpoint{ph.Out(0)}, []graph.Endpoint{sum.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlannedBuffers() == 0 {
		t.Fatal("FusedMatMul output not recycled")
	}
	rm := device.NewResourceManager()
	x := tensor.FromFloat32s(tensor.Shape{4, 3}, []float32{
		1, 2, 3, -4, 5, -6, 7, 8, 9, 0, 1, 0,
	})
	var want float64
	for i := 0; i < 10; i++ {
		out, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{x}, Resources: rm, StepID: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = out[0].FloatAt(0)
			continue
		}
		if got := out[0].FloatAt(0); got != want {
			t.Fatalf("step %d: sum = %v, want %v (recycled buffer corrupted)", i+1, got, want)
		}
	}
}

// TestRecycleInsideLoop: in `while i < iters { s = tanh(s·W) }` the MatMul
// output's one reader is the Tanh of the same iteration, and each Tanh output
// is read by the next iteration's MatMul, so every iteration after the first
// reuses buffers the earlier ones freed — a loop stops allocating its values
// — and eight concurrent steps, each with its own free list, give the bits
// of a serial run.
func TestRecycleInsideLoop(t *testing.T) {
	const rows, n, iters = 32, 32, 16
	g := tf.NewGraph()
	s0 := g.Placeholder("s", tf.Float32, tf.Shape{rows, n})
	wv := make([]float32, n*n)
	for i := range wv {
		wv[i] = float32(i%13-6) / 32
	}
	w := g.Const(tensor.FromFloat32s(tensor.Shape{n, n}, wv))
	outs := g.While([]tf.Output{g.Const(int32(0)), s0}, nil,
		func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], g.Const(int32(iters))) },
		func(vars, _ []tf.Output) []tf.Output {
			return []tf.Output{g.Add(vars[0], g.Const(int32(1))), g.Tanh(g.MatMul(vars[1], w))}
		})
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.Compile(g.Raw(), []graph.Endpoint{s0.Unwrap()}, []graph.Endpoint{outs[1].Unwrap()}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlannedBuffers() == 0 {
		t.Fatal("the loop body's MatMul output is not recycled")
	}
	rm := device.NewResourceManager()
	run := func(step int64) ([]float32, error) {
		out, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{ramp(rows, n, float32(step%5)/4)}, Resources: rm, StepID: step})
		if err != nil {
			return nil, err
		}
		return out[0].Float32s(), nil
	}

	least := leastStepBytes(t, 16, func() error { _, err := run(1); return err })
	tensorBytes := uint64(rows * n * 4)
	t.Logf("steady-state Run allocates %d bytes for %d iterations of two %d-byte results", least, iters, tensorBytes)
	// The Tanh results cross NextIteration, and the last one comes out
	// through Exit to the caller: only that one is a new buffer. One result
	// per iteration would be 16×.
	if budget := 4 * tensorBytes; least > budget {
		t.Errorf("a Run allocates %d bytes, budget %d: the loop allocates a result every iteration", least, budget)
	}

	want := make([][]float32, 5)
	for i := range want {
		if want[i], err = run(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				step := int64(c*20 + r)
				got, err := run(step)
				if err != nil {
					errs <- err
					return
				}
				for i, v := range got {
					if math.Float32bits(v) != math.Float32bits(want[step%5][i]) {
						errs <- fmt.Errorf("step %d: element %d = %v, serial run gave %v", step, i, v, want[step%5][i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecycleDynamicShape: a placeholder whose batch dimension is known only
// at run time (as in a frozen serving graph) recycles like a static one, and
// a buffer freed at one batch size is never handed to a value of another.
func TestRecycleDynamicShape(t *testing.T) {
	const n = 64
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, n})
	wv := make([]float32, n*n)
	for i := range wv {
		wv[i] = float32(i%7-3) / 16
	}
	y := g.Sum(g.Tanh(g.MatMul(g.Tanh(x), g.Const(tensor.FromFloat32s(tensor.Shape{n, n}, wv)))), []int{1}, false)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.Compile(g.Raw(), []graph.Endpoint{x.Unwrap()}, []graph.Endpoint{y.Unwrap()}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.PlannedBuffers(); got != 3 {
		t.Errorf("PlannedBuffers = %d, want 3 (Tanh, MatMul and Tanh feed only kernels that keep nothing)", got)
	}
	rm := device.NewResourceManager()
	want := map[int][]float32{}
	for step := int64(1); step <= 40; step++ {
		rows := []int{1, 16, 3, 16}[step%4]
		out, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{ramp(rows, n, 0.5)}, Resources: rm, StepID: step})
		if err != nil {
			t.Fatal(err)
		}
		got := out[0].Float32s()
		if want[rows] == nil {
			want[rows] = got
			continue
		}
		for i, v := range got {
			if math.Float32bits(v) != math.Float32bits(want[rows][i]) {
				t.Fatalf("step %d, %d rows: element %d = %v, first run gave %v", step, rows, i, v, want[rows][i])
			}
		}
	}
	const rows = 64
	feed := ramp(rows, n, 0.5)
	least := leastStepBytes(t, 16, func() error {
		_, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{feed}, Resources: rm, StepID: 1})
		return err
	})
	t.Logf("steady-state Run of %d rows allocates %d bytes", rows, least)
	if tensorBytes := uint64(rows * n * 4); least >= tensorBytes {
		t.Errorf("a Run allocates %d bytes, at least one %d-byte intermediate: the [-1, %d] graph recycles nothing", least, tensorBytes, n)
	}
}

// TestRecycleNeverFreesWhatOthersHold: one case per kind of tensor that must
// not reach the free list while someone still reads it, where a later
// ctx.Alloc would rewrite it. Const's attribute and Identity's alias need
// "producer NoRetain"; a fetched output, and a value fetched after it came
// out of a loop through NextIteration and Exit, need "nothing on the way is
// fetched"; a value popped into Assign, which keeps it, needs "every other
// reader NoRetain"; a loop invariant, read by every iteration, needs its
// Enter to hand nothing on. A compare's scalar, a gradient-stack value and a
// value that a Switch hands to its live side are counted and recycled, and
// must be only after their last reader: the dead side of the Switch holds no
// share. Every case runs three steps and checks each one's values, and the
// first step's fetches again at the end.
func TestRecycleNeverFreesWhatOthersHold(t *testing.T) {
	const n = 64
	vec := func(g *graph.Graph, name string) *graph.Node {
		return addNode(t, g, "Placeholder", nil, graph.NodeArgs{
			Name: name, Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{1, n}},
		})
	}
	scalar := func(g *graph.Graph, name string, dt tensor.DType) *graph.Node {
		return addNode(t, g, "Placeholder", nil, graph.NodeArgs{
			Name: name, Attrs: map[string]any{"dtype": dt, "shape": tensor.ScalarShape()},
		})
	}
	op := func(g *graph.Graph, op string, control []*graph.Node, ins ...graph.Endpoint) *graph.Node {
		return addNode(t, g, op, ins, graph.NodeArgs{Control: control})
	}
	exp := func(v float32) float32 { return float32(math.Exp(float64(v))) }
	// elementwise checks a [1, n] fetch against f of the [1, n] feed, bit for bit.
	elementwise := func(f func(p float32) float32) func(step int, feeds, out []*tensor.Tensor) error {
		return func(step int, feeds, out []*tensor.Tensor) error {
			for i, p := range feeds[0].Float32s() {
				if got, want := out[0].Float32s()[i], f(p); math.Float32bits(got) != math.Float32bits(want) {
					return fmt.Errorf("element %d = %v, want %v", i, got, want)
				}
			}
			return nil
		}
	}
	cv := ramp(1, n, -0.25).Float32s()
	cases := []struct {
		name  string
		build func(g *tf.Graph) (feeds, fetches []graph.Endpoint)
		feed  func(step int) []*tensor.Tensor
		check func(step int, feeds, out []*tensor.Tensor) error
	}{{
		name: "Const attribute",
		build: func(tg *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			g := tg.Raw()
			p := vec(g, "p")
			c := addNode(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{1, n}, cv)}})
			z := op(g, "Neg", nil, op(g, "Add", nil, c.Out(0), p.Out(0)).Out(0))
			return []graph.Endpoint{p.Out(0)}, []graph.Endpoint{z.Out(0)}
		},
		feed: func(step int) []*tensor.Tensor { return []*tensor.Tensor{ramp(1, n, float32(step))} },
		check: func(step int, feeds, out []*tensor.Tensor) error {
			for i, p := range feeds[0].Float32s() {
				if got, want := out[0].Float32s()[i], -(cv[i] + p); got != want {
					return fmt.Errorf("element %d = %v, want %v", i, got, want)
				}
			}
			return nil
		},
	}, {
		name: "Identity alias",
		build: func(tg *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			g := tg.Raw()
			p := vec(g, "p")
			x := op(g, "Exp", nil, p.Out(0))
			y := op(g, "Exp", nil, op(g, "Neg", nil, op(g, "Identity", nil, x.Out(0)).Out(0)).Out(0))
			s := op(g, "Add", nil, y.Out(0), x.Out(0)) // x's second reader runs after y is allocated
			return []graph.Endpoint{p.Out(0)}, []graph.Endpoint{s.Out(0)}
		},
		feed:  func(step int) []*tensor.Tensor { return []*tensor.Tensor{ramp(1, n, float32(step)/8)} },
		check: elementwise(func(p float32) float32 { x := exp(p); return exp(-x) + x }),
	}, {
		name: "shared scalar",
		build: func(tg *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			g := tg.Raw()
			p, q, r := scalar(g, "p", tensor.Float32), scalar(g, "q", tensor.Float32), scalar(g, "r", tensor.Bool)
			// Less's scalar is recycled once LogicalNot has read it, before
			// LogicalAnd's ctx.Alloc takes it.
			nl := op(g, "LogicalNot", nil, op(g, "Less", nil, p.Out(0), q.Out(0)).Out(0))
			a := op(g, "LogicalAnd", nil, nl.Out(0), r.Out(0))
			return []graph.Endpoint{p.Out(0), q.Out(0), r.Out(0)}, []graph.Endpoint{a.Out(0)}
		},
		feed: func(step int) []*tensor.Tensor {
			p, q := tensor.Scalar(1), tensor.Scalar(2)
			if step == 2 {
				p, q = q, p
			}
			return []*tensor.Tensor{p, q, tensor.ScalarBool(true)}
		},
		check: func(step int, feeds, out []*tensor.Tensor) error {
			if got, want := out[0].Bools()[0], !(feeds[0].FloatAt(0) < feeds[1].FloatAt(0)); got != want {
				return fmt.Errorf("!(%v < %v) && true = %v", feeds[0].FloatAt(0), feeds[1].FloatAt(0), got)
			}
			return nil
		},
	}, {
		name: "fetched output",
		build: func(tg *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			g := tg.Raw()
			p := vec(g, "p")
			n1 := op(g, "Neg", nil, p.Out(0))
			return []graph.Endpoint{p.Out(0)}, []graph.Endpoint{n1.Out(0), op(g, "Exp", nil, n1.Out(0)).Out(0)}
		},
		feed: func(step int) []*tensor.Tensor { return []*tensor.Tensor{ramp(1, n, float32(step))} },
		check: func(step int, feeds, out []*tensor.Tensor) error {
			if err := elementwise(func(p float32) float32 { return -p })(step, feeds, out); err != nil {
				return err
			}
			return elementwise(func(p float32) float32 { return exp(-p) })(step, feeds, out[1:])
		},
	}, {
		name: "gradient stack",
		build: func(tg *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			g := tg.Raw()
			p := vec(g, "p")
			tok := addNode(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": tensor.ScalarInt(0)}})
			x := op(g, "Neg", nil, p.Out(0))
			push := addNode(t, g, "StackPush", []graph.Endpoint{x.Out(0), tok.Out(0)}, graph.NodeArgs{
				Attrs: map[string]any{"stack": "s"},
			})
			// x's last reader is Exp, after the push; z is allocated before the pop.
			z := op(g, "Neg", nil, op(g, "Exp", []*graph.Node{push}, x.Out(0)).Out(0))
			pop := addNode(t, g, "StackPop", []graph.Endpoint{push.Out(0)}, graph.NodeArgs{
				Attrs:   map[string]any{"stack": "s", "dtype": tensor.Float32, "shape": tensor.Shape{1, n}},
				Control: []*graph.Node{z},
			})
			return []graph.Endpoint{p.Out(0)}, []graph.Endpoint{op(g, "Add", nil, pop.Out(0), z.Out(0)).Out(0)}
		},
		feed:  func(step int) []*tensor.Tensor { return []*tensor.Tensor{ramp(1, n, float32(step)/8)} },
		check: elementwise(func(p float32) float32 { return -p + -exp(-p) }),
	}, {
		name: "fetched loop exit",
		build: func(g *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			p := g.Placeholder("p", tf.Float32, tf.Shape{1, n})
			// The last Exp's buffer comes out through NextIteration, Merge,
			// Switch and Exit, and is fetched.
			outs := g.While([]tf.Output{g.Const(int32(0)), p}, nil,
				func(v, _ []tf.Output) tf.Output { return g.Less(v[0], g.Const(int32(3))) },
				func(v, _ []tf.Output) []tf.Output {
					return []tf.Output{g.Add(v[0], g.Const(int32(1))), g.Exp(g.Neg(v[1]))}
				})
			return []graph.Endpoint{p.Unwrap()}, []graph.Endpoint{outs[1].Unwrap()}
		},
		feed:  func(step int) []*tensor.Tensor { return []*tensor.Tensor{ramp(1, n, float32(step)/8)} },
		check: elementwise(func(p float32) float32 { return exp(-exp(-exp(-p))) }),
	}, {
		name: "dead side of a Switch",
		build: func(tg *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			g := tg.Raw()
			p, q := vec(g, "p"), scalar(g, "q", tensor.Bool)
			x := op(g, "Exp", nil, p.Out(0))
			sw := op(g, "Switch", nil, x.Out(0), q.Out(0))
			a, b := op(g, "Neg", nil, sw.Out(1)), op(g, "Neg", nil, sw.Out(0))
			// The Merge waits for the dead Neg too, so w is allocated after
			// both sides have run and before x's last reader.
			w := op(g, "Exp", nil, op(g, "Merge", []*graph.Node{a, b}, a.Out(0), b.Out(0)).Out(0))
			return []graph.Endpoint{p.Out(0), q.Out(0)}, []graph.Endpoint{op(g, "Add", nil, w.Out(0), x.Out(0)).Out(0)}
		},
		feed: func(step int) []*tensor.Tensor {
			return []*tensor.Tensor{ramp(1, n, float32(step)/8), tensor.ScalarBool(step != 2)}
		},
		check: elementwise(func(p float32) float32 { return exp(-exp(p)) + exp(p) }),
	}, {
		name: "loop invariant",
		build: func(g *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			p := g.Placeholder("p", tf.Float32, tf.Shape{1, n})
			x := g.Exp(p) // every iteration reads it through one loop-invariant Enter
			outs := g.While([]tf.Output{g.Const(int32(0)), p}, nil,
				func(v, _ []tf.Output) tf.Output { return g.Less(v[0], g.Const(int32(3))) },
				func(v, _ []tf.Output) []tf.Output { return []tf.Output{g.Add(v[0], g.Const(int32(1))), g.Mul(v[1], x)} })
			return []graph.Endpoint{p.Unwrap()}, []graph.Endpoint{outs[1].Unwrap()}
		},
		feed:  func(step int) []*tensor.Tensor { return []*tensor.Tensor{ramp(1, n, float32(step)/8)} },
		check: elementwise(func(p float32) float32 { x := exp(p); return p * x * x * x }),
	}, {
		name: "stack pop into a retaining reader",
		build: func(tg *tf.Graph) ([]graph.Endpoint, []graph.Endpoint) {
			g := tg.Raw()
			p := vec(g, "p")
			tok := addNode(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": tensor.ScalarInt(0)}})
			x := op(g, "Exp", nil, p.Out(0))
			push := addNode(t, g, "StackPush", []graph.Endpoint{x.Out(0), tok.Out(0)}, graph.NodeArgs{
				Attrs: map[string]any{"stack": "s"},
			})
			y := op(g, "Neg", []*graph.Node{push}, x.Out(0))
			pop := addNode(t, g, "StackPop", []graph.Endpoint{push.Out(0)}, graph.NodeArgs{
				Attrs:   map[string]any{"stack": "s", "dtype": tensor.Float32, "shape": tensor.Shape{1, n}},
				Control: []*graph.Node{y},
			})
			// Assign outputs the tensor it got: the popped buffer, fetched.
			v := addNode(t, g, "Variable", nil, graph.NodeArgs{
				Name: "v", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{1, n}},
			})
			assign := op(g, "Assign", nil, v.Out(0), pop.Out(0))
			return []graph.Endpoint{p.Out(0)}, []graph.Endpoint{assign.Out(0), y.Out(0)}
		},
		feed: func(step int) []*tensor.Tensor { return []*tensor.Tensor{ramp(1, n, float32(step)/8)} },
		check: func(step int, feeds, out []*tensor.Tensor) error {
			if err := elementwise(exp)(step, feeds, out); err != nil {
				return err
			}
			return elementwise(func(p float32) float32 { return -exp(p) })(step, feeds, out[1:])
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := tf.NewGraph()
			feeds, fetches := c.build(g)
			if err := g.Err(); err != nil {
				t.Fatal(err)
			}
			ex, err := exec.Compile(g.Raw(), feeds, fetches, nil, "CPU")
			if err != nil {
				t.Fatal(err)
			}
			rm := device.NewResourceManager()
			var first, firstOut []*tensor.Tensor
			for step := 1; step <= 3; step++ {
				in := c.feed(step)
				out, err := ex.Run(exec.RunParams{FeedValues: in, Resources: rm, StepID: int64(step)})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.check(step, in, out); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if step == 1 {
					first, firstOut = in, out
				}
			}
			if err := c.check(1, first, firstOut); err != nil {
				t.Fatalf("step 1's fetches after step 3: %v", err)
			}
		})
	}
}
