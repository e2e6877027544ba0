package ops_test

import (
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// evalOp runs a single op on materialized inputs through the real kernel
// registry (the constant-folding evaluator path).
func evalOp(t *testing.T, op string, attrs map[string]any, inputs ...*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	g := graph.New()
	ins := make([]graph.Endpoint, len(inputs))
	for i, in := range inputs {
		c, err := g.AddNode("Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": in}})
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = c.Out(0)
	}
	n, err := g.AddNode(op, ins, graph.NodeArgs{Attrs: attrs})
	if err != nil {
		t.Fatalf("AddNode(%s): %v", op, err)
	}
	eval := exec.Evaluator("CPU", device.NewResourceManager())
	out, err := eval(n, inputs)
	if err != nil {
		t.Fatalf("eval %s: %v", op, err)
	}
	return out
}

func TestElementwiseKernels(t *testing.T) {
	a := tensor.FromFloat32s(tensor.Shape{3}, []float32{1, -2, 3})
	b := tensor.FromFloat32s(tensor.Shape{3}, []float32{4, 5, -6})
	if got := evalOp(t, "Add", nil, a, b)[0]; got.FloatAt(0) != 5 || got.FloatAt(2) != -3 {
		t.Errorf("Add = %v", got)
	}
	if got := evalOp(t, "Maximum", nil, a, b)[0]; got.FloatAt(1) != 5 {
		t.Errorf("Maximum = %v", got)
	}
	if got := evalOp(t, "Abs", nil, a)[0]; got.FloatAt(1) != 2 {
		t.Errorf("Abs = %v", got)
	}
	if got := evalOp(t, "Relu", nil, a)[0]; got.FloatAt(1) != 0 || got.FloatAt(2) != 3 {
		t.Errorf("Relu = %v", got)
	}
}

// TestActivationGradsMatchReferenceFormula pins the typed SigmoidGrad and
// TanhGrad loops, for both float dtypes and a mixed pair, to the arithmetic
// they replaced: per element, float64 math through FloatAt and one rounding
// through SetFloat. Equality is exact — training goldens depend on it.
func TestActivationGradsMatchReferenceFormula(t *testing.T) {
	formulas := map[string]func(y, dy float64) float64{
		"SigmoidGrad": func(y, dy float64) float64 { return dy * y * (1 - y) },
		"TanhGrad":    func(y, dy float64) float64 { return dy * (1 - float64(y*y)) },
	}
	rng := tensor.NewRNG(7)
	shape := tensor.Shape{5, 13}
	for op, f := range formulas {
		for _, dts := range [][2]tensor.DType{
			{tensor.Float32, tensor.Float32}, {tensor.Float64, tensor.Float64}, {tensor.Float32, tensor.Float64},
		} {
			y, dy := rng.Uniform(dts[0], shape, -1, 1), rng.Uniform(dts[1], shape, -3, 3)
			// Values that round differently in float32 and float64.
			y.SetFloat(0, 1.0/3)
			dy.SetFloat(0, 1e-7)
			y.SetFloat(1, 0.99999994)
			got := evalOp(t, op, nil, y, dy)[0]
			want := tensor.New(dts[0], shape)
			for i := 0; i < want.NumElements(); i++ {
				want.SetFloat(i, f(y.FloatAt(i), dy.FloatAt(i)))
			}
			if got.DType() != want.DType() || !got.Shape().Equal(shape) {
				t.Fatalf("%s(%v, %v): output %v %v", op, dts[0], dts[1], got.DType(), got.Shape())
			}
			for i := 0; i < want.NumElements(); i++ {
				if got.FloatAt(i) != want.FloatAt(i) {
					t.Errorf("%s(%v, %v)[%d] = %v, reference %v", op, dts[0], dts[1], i, got.FloatAt(i), want.FloatAt(i))
				}
			}
		}
	}
}

func TestShapeSizeRankKernels(t *testing.T) {
	a := tensor.New(tensor.Float32, tensor.Shape{2, 5})
	if got := evalOp(t, "Shape", nil, a)[0]; got.IntAt(0) != 2 || got.IntAt(1) != 5 {
		t.Errorf("Shape = %v", got)
	}
	if got := evalOp(t, "Size", nil, a)[0]; got.IntAt(0) != 10 {
		t.Errorf("Size = %v", got)
	}
	if got := evalOp(t, "Rank", nil, a)[0]; got.IntAt(0) != 2 {
		t.Errorf("Rank = %v", got)
	}
}

func TestRangeAndFillKernels(t *testing.T) {
	got := evalOp(t, "Range", nil, tensor.Scalar(0), tensor.Scalar(5), tensor.Scalar(2))[0]
	if got.NumElements() != 3 || got.FloatAt(2) != 4 {
		t.Errorf("Range = %v", got)
	}
	// Reverse range.
	rev := evalOp(t, "Range", nil, tensor.Scalar(5), tensor.Scalar(0), tensor.Scalar(-2))[0]
	if rev.NumElements() != 3 || rev.FloatAt(2) != 1 {
		t.Errorf("reverse Range = %v", rev)
	}
	dims := tensor.FromInt32s(tensor.Shape{2}, []int32{2, 2})
	fill := evalOp(t, "Fill", nil, dims, tensor.Scalar(7))[0]
	if !fill.Shape().Equal(tensor.Shape{2, 2}) || fill.FloatAt(3) != 7 {
		t.Errorf("Fill = %v", fill)
	}
}

func TestSoftmaxCrossEntropyKernels(t *testing.T) {
	logits := tensor.FromFloat32s(tensor.Shape{1, 3}, []float32{0, 0, 0})
	labels := tensor.FromFloat32s(tensor.Shape{1, 3}, []float32{1, 0, 0})
	out := evalOp(t, "SoftmaxCrossEntropyWithLogits", nil, logits, labels)
	// Uniform logits, one-hot label: loss = ln 3.
	if got := out[0].FloatAt(0); got < 1.09 || got > 1.11 {
		t.Errorf("loss = %v, want ln 3", got)
	}
	// Backprop = softmax - labels.
	if got := out[1].FloatAt(0); got > -0.66 || got < -0.67 {
		t.Errorf("backprop[0] = %v, want -2/3", got)
	}
	sparse := evalOp(t, "SparseSoftmaxCrossEntropyWithLogits", nil,
		logits, tensor.FromInt32s(tensor.Shape{1}, []int32{0}))
	if sparse[0].FloatAt(0) != out[0].FloatAt(0) {
		t.Errorf("sparse loss %v != dense loss %v", sparse[0], out[0])
	}
}

func TestInTopKKernel(t *testing.T) {
	preds := tensor.FromFloat32s(tensor.Shape{2, 3}, []float32{
		0.1, 0.7, 0.2,
		0.5, 0.3, 0.2,
	})
	targets := tensor.FromInt32s(tensor.Shape{2}, []int32{1, 2})
	out := evalOp(t, "InTopK", map[string]any{"k": 1}, preds, targets)[0]
	if !out.Bools()[0] || out.Bools()[1] {
		t.Errorf("InTopK k=1 = %v", out.Bools())
	}
	out2 := evalOp(t, "InTopK", map[string]any{"k": 3}, preds, targets)[0]
	if !out2.Bools()[0] || !out2.Bools()[1] {
		t.Errorf("InTopK k=3 = %v", out2.Bools())
	}
}

func TestBroadcastGradientArgsKernel(t *testing.T) {
	sa := tensor.FromInt32s(tensor.Shape{2}, []int32{4, 3})
	sb := tensor.FromInt32s(tensor.Shape{1}, []int32{3})
	out := evalOp(t, "BroadcastGradientArgs", nil, sa, sb)
	// a [4,3] vs b [3]: a reduces nothing; b reduces axis 0.
	if out[0].NumElements() != 0 {
		t.Errorf("ra = %v", out[0])
	}
	if out[1].NumElements() != 1 || out[1].IntAt(0) != 0 {
		t.Errorf("rb = %v", out[1])
	}
}

func TestVariableLifecycleDirect(t *testing.T) {
	v := ops.NewVariable(tensor.Float32, tensor.Shape{2})
	if v.Initialized() {
		t.Error("fresh variable reports initialized")
	}
	if _, err := v.Read(); err == nil {
		t.Error("read of uninitialized variable succeeded")
	}
	assigned := tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 2})
	if err := v.Assign(assigned); err != nil {
		t.Fatal(err)
	}
	// Dtype and shape guards.
	if err := v.Assign(tensor.FromInt32s(tensor.Shape{2}, []int32{1, 2})); err == nil {
		t.Error("dtype mismatch accepted")
	}
	if err := v.Assign(tensor.FromFloat32s(tensor.Shape{3}, []float32{1, 2, 3})); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Read copies nothing, and what it returned is isolated from later
	// in-place updates: the first one after a read works on its own copy,
	// the next one on that copy again.
	snap, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	if snap != assigned {
		t.Error("Read copied the value")
	}
	var first *tensor.Tensor
	set := func(x float32) func(cur *tensor.Tensor) error {
		return func(cur *tensor.Tensor) error {
			if first == nil {
				first = cur
			} else if cur != first {
				t.Error("a second in-place update with no read between copied again")
			}
			cur.Float32s()[0] = x
			return nil
		}
	}
	if err := v.Mutate(set(98)); err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(set(99)); err != nil {
		t.Fatal(err)
	}
	if snap.FloatAt(0) != 1 {
		t.Error("snapshot aliased the live buffer")
	}
	cur, _ := v.Read()
	if cur.FloatAt(0) != 99 {
		t.Error("in-place update lost")
	}
	// A replacing write hands its result out, so the in-place write after
	// it must not touch that tensor either.
	replaced, err := v.Replace(func(cur *tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.Binary(tensor.New, tensor.OpAdd, cur, tensor.Scalar(1))
	})
	if err != nil {
		t.Fatal(err)
	}
	first = nil
	if err := v.Mutate(set(7)); err != nil {
		t.Fatal(err)
	}
	if cur.FloatAt(0) != 99 || replaced.FloatAt(0) != 100 {
		t.Errorf("handed-out values changed: read %v, replaced %v", cur, replaced)
	}
	if now, _ := v.Read(); now.FloatAt(0) != 7 || now.FloatAt(1) != 3 {
		t.Errorf("value after replace and mutate = %v, want [7 3]", now)
	}
}

func TestRendezvousKeyFormat(t *testing.T) {
	key := ops.RendezvousKey(7, "/job:a/task:0/device:CPU:0", "/job:b/task:1/device:CPU:0", "edge:x:0")
	want := "step 7;/job:a/task:0/device:CPU:0;/job:b/task:1/device:CPU:0;edge:x:0"
	if key != want {
		t.Errorf("key = %q", key)
	}
}

func TestKernelRegistryFallback(t *testing.T) {
	// Any op must resolve a kernel for an unknown device type by falling
	// back to CPU (§3.3: kernels registered per device with CPU default).
	k, err := ops.LookupKernel("Add", "TPU")
	if err != nil || k == nil {
		t.Errorf("fallback lookup failed: %v", err)
	}
	if _, err := ops.LookupKernel("NoSuchOp", "CPU"); err == nil {
		t.Error("unknown op kernel lookup succeeded")
	}
	if !ops.MayBlock("QueueDequeue") || ops.MayBlock("Add") {
		t.Error("MayBlock misclassifies kernels")
	}
}

// TestBiasAddRejectsBiasThatWidensInput: a bias that broadcasts the value to a
// larger shape is an error, not a wider output.
func TestBiasAddRejectsBiasThatWidensInput(t *testing.T) {
	v, b := tensor.New(tensor.Float32, tensor.Shape{2, 1}), tensor.New(tensor.Float32, tensor.Shape{3})
	g := graph.New()
	var ins []graph.Endpoint
	for _, c := range []*tensor.Tensor{v, b} {
		n, err := g.AddNode("Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": c}})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, n.Out(0))
	}
	n, err := g.AddNode("BiasAdd", ins, graph.NodeArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Evaluator("CPU", nil)(n, []*tensor.Tensor{v, b}); err == nil {
		t.Errorf("BiasAdd of %v and %v = %v, want an error", v.Shape(), b.Shape(), out[0])
	}
}
