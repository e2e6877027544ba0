package tf_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/tf"
	"repro/tf/train"
)

// whileModel is a training step through a tf.While of s ← tanh(s·W), batch
// 16, dim 32: the forward loop pushes what the backward loop pops, and
// GradientDescent updates W from the backward loop's sum.
type whileModel struct {
	g     *tf.Graph
	x, y  tf.Output
	w     *tf.Variable
	loss  tf.Output
	train *tf.Operation
}

const whileBatch, whileDim = 16, 32

// filled returns a [rows, cols] float32 tensor of distinct values in
// [lo, lo+span) that depend on seed.
func filled(rows, cols int, seed int, lo, span float32) *tf.Tensor {
	t := tf.NewTensor(tf.Float32, tf.Shape{rows, cols})
	for i := range t.Float32s() {
		t.Float32s()[i] = lo + span*float32((i*31+seed*17)%97)/97
	}
	return t
}

func buildWhileModel(t *testing.T, iters int) *whileModel {
	t.Helper()
	g := tf.NewGraph()
	m := &whileModel{g: g}
	m.x = g.Placeholder("x", tf.Float32, tf.Shape{whileBatch, whileDim})
	m.y = g.Placeholder("y", tf.Float32, tf.Shape{whileBatch, whileDim})
	m.w = g.NewVariableFromTensor("w", filled(whileDim, whileDim, 0, -0.3, 0.6))
	wVal := m.w.Value()
	outs := g.While([]tf.Output{g.Const(int32(0)), m.x}, nil,
		func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], g.Const(int32(iters))) },
		func(vars, _ []tf.Output) []tf.Output {
			return []tf.Output{g.Add(vars[0], g.Const(int32(1))), g.Tanh(g.MatMul(vars[1], wVal))}
		})
	m.loss = g.Mean(g.Square(g.Sub(outs[1], m.y)), nil, false)
	op, err := (&train.GradientDescent{LearningRate: 0.05}).Minimize(g, m.loss, []*tf.Variable{m.w})
	if err != nil {
		t.Fatal(err)
	}
	m.train = op
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWhileTrainingStepAllocations pins what a loop's training step
// allocates in steady state: nothing per iteration. Every loop-carried value,
// every value saved on a gradient stack and every scalar (counters,
// predicates) goes back to the step's free list after its last reader, in
// whatever frame and iteration that reader runs; a drained stack keeps its
// capacity for the next step. So 32 and 64 iterations allocate the same: the
// fetched loss, the session's and the executor's per-step bookkeeping.
func TestWhileTrainingStepAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, iters := range []int{32, 64} {
		t.Run(fmt.Sprint(iters), func(t *testing.T) {
			m := buildWhileModel(t, iters)
			s := newSession(t, m.g)
			if err := s.RunTargets(m.g.InitOp()); err != nil {
				t.Fatal(err)
			}
			feeds := map[tf.Output]*tf.Tensor{
				m.x: filled(whileBatch, whileDim, 1, -1, 2),
				m.y: filled(whileBatch, whileDim, 2, -0.5, 1),
			}
			step := func() {
				out, err := s.Run(feeds, []tf.Output{m.loss}, m.train)
				if err != nil {
					t.Fatal(err)
				}
				if l := out[0].FloatAt(0); math.IsNaN(l) || math.IsInf(l, 0) {
					t.Fatalf("loss %v", l)
				}
			}
			for i := 0; i < 4; i++ {
				step()
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, step)
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			t.Logf("%d iterations: %.0f allocations and %.0f bytes a step", iters, allocs, bytes)
			if raceEnabled {
				return // the race detector's sync.Pool drops Puts, and its shadow memory allocates
			}
			if allocs > 100 {
				t.Errorf("a step makes %.0f allocations (budget 100): a loop value misses the free list", allocs)
			}
			if bytes > 16<<10 {
				t.Errorf("a step allocates %.0f bytes (budget 16 KiB): a loop value misses the free list", bytes)
			}
		})
	}
}

// TestWhileGradientConcurrentStepsMatchSerial: concurrent steps of a loop's
// gradient each recycle loop-carried and stack-saved buffers on their own
// free lists, so each gives the bits of the same step run alone.
func TestWhileGradientConcurrentStepsMatchSerial(t *testing.T) {
	const iters, feedsN = 12, 4
	m := buildWhileModel(t, iters)
	grads, err := m.g.DenseGradients([]tf.Output{m.loss}, []tf.Output{m.w.Value()})
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, m.g)
	if err := s.RunTargets(m.g.InitOp()); err != nil {
		t.Fatal(err)
	}
	feeds := make([]map[tf.Output]*tf.Tensor, feedsN)
	want := make([][]float32, feedsN)
	for i := range feeds {
		feeds[i] = map[tf.Output]*tf.Tensor{
			m.x: filled(whileBatch, whileDim, 3*i+1, -1, 2),
			m.y: filled(whileBatch, whileDim, 3*i+2, -0.5, 1),
		}
		dw, err := s.Fetch1(feeds[i], grads[0])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = dw.Float32s()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 12; r++ {
				i := (c + r) % feedsN
				dw, err := s.Fetch1(feeds[i], grads[0])
				if err != nil {
					errs <- err
					return
				}
				for j, v := range dw.Float32s() {
					if math.Float32bits(v) != math.Float32bits(want[i][j]) {
						errs <- fmt.Errorf("caller %d run %d: dW[%d] = %v, serial run gave %v", c, r, j, v, want[i][j])
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
