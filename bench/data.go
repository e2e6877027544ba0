package main

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
	"repro/tf"
)

// Every input the runtime sees is generated here from the run's seed: the
// runtime itself is never handed the seed.

// poolSize is how many distinct batches a training workload cycles through.
// It divides lossCheckStep, so the gated loss at step 50 is on the batch of
// step 0 and the two compare like with like whatever the seed draws.
const poolSize = 10

// uniform fills a float32 tensor with values in [lo, hi).
func uniform(r *rand.Rand, shape tf.Shape, lo, hi float64) *tf.Tensor {
	t := tf.NewTensor(tf.Float32, shape)
	for i := range t.Float32s() {
		t.Float32s()[i] = float32(lo + (hi-lo)*r.Float64())
	}
	return t
}

// denseInit draws a layer's weights uniform in ±1/√in and zero biases, in
// the order w0, b0, w1, b1, ...
func denseInit(r *rand.Rand, widths []int) []*tf.Tensor {
	var out []*tf.Tensor
	for i := 0; i+1 < len(widths); i++ {
		in, units := widths[i], widths[i+1]
		bound := 1 / math.Sqrt(float64(in))
		out = append(out, uniform(r, tf.Shape{in, units}, -bound, bound),
			tf.NewTensor(tf.Float32, tf.Shape{units}))
	}
	return out
}

// mustMatMul multiplies harness-generated operands whose shapes are fixed by
// the code; a mismatch is a bug in the harness.
func mustMatMul(a, b *tf.Tensor) *tf.Tensor {
	out, err := tensor.MatMul(a, b, false, false)
	if err != nil {
		panic(err)
	}
	return out
}

// teacherLabels labels each row of x with the arg-max of x·teacher, so the
// classification task is learnable.
func teacherLabels(x, teacher *tf.Tensor) *tf.Tensor {
	rows, classes := x.Shape()[0], teacher.Shape()[1]
	scores := mustMatMul(x, teacher).Float32s()
	labels := make([]int32, rows)
	for i := range labels {
		best := 0
		for c := 1; c < classes; c++ {
			if scores[i*classes+c] > scores[i*classes+best] {
				best = c
			}
		}
		labels[i] = int32(best)
	}
	return tf.FromInt32s(tf.Shape{rows}, labels)
}

// regressionTeacher generates [rows,1] targets y = tanh(x·hidden)·head +
// noise that a small MLP can fit.
type regressionTeacher struct {
	hidden, head *tf.Tensor
}

func newRegressionTeacher(r *rand.Rand, in, width int) regressionTeacher {
	return regressionTeacher{
		hidden: uniform(r, tf.Shape{in, width}, -0.2, 0.2),
		head:   uniform(r, tf.Shape{width, 1}, -1, 1),
	}
}

func (t regressionTeacher) targets(r *rand.Rand, x *tf.Tensor) *tf.Tensor {
	h := mustMatMul(x, t.hidden)
	for i, v := range h.Float32s() {
		h.Float32s()[i] = float32(math.Tanh(float64(v)))
	}
	y := mustMatMul(h, t.head)
	for i := range y.Float32s() {
		y.Float32s()[i] += float32(0.01 * r.NormFloat64())
	}
	return y
}

// recurrence applies s ← tanh(s·w) iters times.
func recurrence(s, w *tf.Tensor, iters int) *tf.Tensor {
	for i := 0; i < iters; i++ {
		s = mustMatMul(s, w)
		for j, v := range s.Float32s() {
			s.Float32s()[j] = float32(math.Tanh(float64(v)))
		}
	}
	return s
}

// zipfIDs draws n ids in [0, vocab) from a Zipf(s=1.1) law: a few hot rows
// and a long tail, the access pattern of an embedding table.
func zipfIDs(r *rand.Rand, n, vocab int) []int32 {
	z := rand.NewZipf(r, 1.1, 1, uint64(vocab-1))
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(z.Uint64())
	}
	return ids
}
