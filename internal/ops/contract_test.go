package ops_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// sentinelAlloc is a ctx.Alloc that hands out buffers full of a value no
// kernel computes from the fixtures below (NaN, 0x5A…, true, "ZZ") and
// remembers each one, so a kernel that leaves an element unwritten or
// outputs a tensor it did not get here is caught.
type sentinelAlloc map[*tensor.Tensor]bool

func (s sentinelAlloc) alloc(dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	t := tensor.New(dt, shape)
	for i := 0; i < t.NumElements(); i++ {
		switch dt {
		case tensor.Bool:
			t.Bools()[i] = true
		case tensor.String:
			t.Strings()[i] = "ZZ"
		case tensor.Int32:
			t.Int32s()[i] = 0x5A5A5A5A
		case tensor.Int64:
			t.Int64s()[i] = 0x5A5A5A5A5A5A5A5A
		default:
			t.SetFloat(i, math.NaN())
		}
	}
	s[t] = true
	return t
}

// grid is a float32 tensor of the given shape holding start, start+step, …
func grid(shape tensor.Shape, start, step float32) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	for i := range t.Float32s() {
		t.Float32s()[i] = start + float32(i)*step
	}
	return t
}

func ints(vs ...int32) *tensor.Tensor { return tensor.FromInt32s(tensor.Shape{len(vs)}, vs) }

// TestNoRetainKernelContract holds every stateless NoRetain kernel to the
// contract that lets the executor recycle its outputs (behavior.go): run once
// with the heap allocator and once with sentinelAlloc, the outputs must be
// bit for bit the same, and each must be a buffer the allocator handed out —
// never an input, never a shared tensor. Every such op needs a row.
func TestNoRetainKernelContract(t *testing.T) {
	m := grid(tensor.Shape{2, 3}, -1, 0.5) // includes a zero
	pos := grid(tensor.Shape{2, 3}, 0.25, 0.5)
	row := grid(tensor.Shape{3}, 0.5, -0.75)
	bools := tensor.FromBools(tensor.Shape{2, 3}, []bool{true, false, true, false, false, true})
	img := grid(tensor.Shape{1, 4, 4, 1}, -2, 0.25)
	filter := grid(tensor.Shape{2, 2, 1, 1}, 0.5, -0.5)
	conv := map[string]any{"strides": []int{1, 1}, "padding": "VALID"}
	pool := map[string]any{"ksize": []int{2, 2}, "strides": []int{2, 2}, "padding": "VALID"}
	rows := map[string]any{"reduction_indices": []int{1}}
	type fixture struct {
		op     string
		attrs  map[string]any
		inputs []*tensor.Tensor
	}
	var table []fixture
	for _, op := range []string{"Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "SquaredDifference"} {
		table = append(table, fixture{op, nil, []*tensor.Tensor{pos, row}})
	}
	for _, op := range []string{"Neg", "Abs", "Exp", "Log", "Sqrt", "Rsqrt", "Square", "Tanh", "Sigmoid",
		"Relu", "Sign", "Floor", "Ceil", "Reciprocal", "ZerosLike", "OnesLike", "Shape", "Size", "Rank",
		"BiasAddGrad", "L2Loss", "Softmax", "LogSoftmax"} {
		table = append(table, fixture{op, nil, []*tensor.Tensor{pos}})
	}
	for _, op := range []string{"Sum", "Mean", "Max", "Min", "Prod"} {
		table = append(table, fixture{op, rows, []*tensor.Tensor{m}}, fixture{op, nil, []*tensor.Tensor{m}})
	}
	for _, op := range []string{"Equal", "NotEqual", "Less", "LessEqual", "Greater", "GreaterEqual"} {
		table = append(table, fixture{op, nil, []*tensor.Tensor{m, row}})
	}
	table = append(table,
		fixture{"ReluGrad", nil, []*tensor.Tensor{pos, m}},
		fixture{"SigmoidGrad", nil, []*tensor.Tensor{pos, m}},
		fixture{"TanhGrad", nil, []*tensor.Tensor{pos, m}},
		fixture{"AddN", nil, []*tensor.Tensor{m, pos, m}},
		fixture{"MatMul", map[string]any{"transpose_b": true}, []*tensor.Tensor{m, pos}},
		fixture{"FusedMatMul", map[string]any{"transpose_a": true, "activation": "Relu"}, []*tensor.Tensor{m, pos, row}},
		fixture{"BiasAdd", nil, []*tensor.Tensor{m, row}},
		fixture{"BatchMatMul", nil, []*tensor.Tensor{grid(tensor.Shape{2, 2, 3}, -1, 0.25), grid(tensor.Shape{2, 3, 2}, 1, -0.25)}},
		fixture{"SumGrad", rows, []*tensor.Tensor{m, grid(tensor.Shape{2}, 1, 1)}},
		fixture{"MeanGrad", nil, []*tensor.Tensor{m, tensor.Scalar(3)}},
		fixture{"ArgMax", map[string]any{"axis": 1}, []*tensor.Tensor{m}},
		fixture{"SoftmaxCrossEntropyWithLogits", nil, []*tensor.Tensor{m, grid(tensor.Shape{2, 3}, 0, 1.0/6)}},
		fixture{"SparseSoftmaxCrossEntropyWithLogits", nil, []*tensor.Tensor{m, ints(2, 0)}},
		fixture{"LogicalAnd", nil, []*tensor.Tensor{bools, tensor.FromBools(tensor.Shape{3}, []bool{true, true, false})}},
		fixture{"LogicalOr", nil, []*tensor.Tensor{bools, tensor.FromBools(tensor.Shape{3}, []bool{false, false, true})}},
		fixture{"LogicalNot", nil, []*tensor.Tensor{bools}},
		fixture{"Select", nil, []*tensor.Tensor{bools, m, pos}},
		fixture{"InTopK", map[string]any{"k": 2}, []*tensor.Tensor{m, ints(0, 2)}},
		fixture{"Cast", map[string]any{"DstT": tensor.Float32}, []*tensor.Tensor{m}},
		fixture{"Cast", map[string]any{"DstT": tensor.Int64}, []*tensor.Tensor{m}},
		fixture{"Cast", map[string]any{"DstT": tensor.Float64}, []*tensor.Tensor{bools}},
		fixture{"Cast", map[string]any{"DstT": tensor.Bool}, []*tensor.Tensor{m}},
		fixture{"ZerosLike", nil, []*tensor.Tensor{bools}},
		fixture{"Fill", nil, []*tensor.Tensor{ints(2, 3), tensor.Scalar(7)}},
		fixture{"Fill", nil, []*tensor.Tensor{ints(2, 3), tensor.Scalar(0)}},
		fixture{"Range", nil, []*tensor.Tensor{tensor.Scalar(1), tensor.Scalar(6), tensor.Scalar(2)}},
		fixture{"BroadcastGradientArgs", nil, []*tensor.Tensor{ints(4, 1, 3), ints(5, 1)}},
		fixture{"Conv2D", conv, []*tensor.Tensor{img, filter}},
		fixture{"Conv2DBackpropInput", conv, []*tensor.Tensor{ints(1, 4, 4, 1), filter, grid(tensor.Shape{1, 3, 3, 1}, 1, -0.25)}},
		fixture{"Conv2DBackpropFilter", conv, []*tensor.Tensor{img, ints(2, 2, 1, 1), grid(tensor.Shape{1, 3, 3, 1}, 1, -0.25)}},
		fixture{"MaxPool", pool, []*tensor.Tensor{img}},
		fixture{"MaxPoolGrad", pool, []*tensor.Tensor{img, grid(tensor.Shape{1, 2, 2, 1}, 1, 1)}},
		fixture{"AvgPool", pool, []*tensor.Tensor{img}},
		fixture{"Transpose", nil, []*tensor.Tensor{m}},
		fixture{"Concat", map[string]any{"axis": 1}, []*tensor.Tensor{m, pos}},
		fixture{"Split", map[string]any{"axis": 1, "sizes": []int{1, 2}}, []*tensor.Tensor{m}},
		fixture{"Slice", map[string]any{"begin": []int{0, 1}, "size": []int{2, -1}}, []*tensor.Tensor{m}},
		fixture{"Pack", nil, []*tensor.Tensor{m, pos}},
		fixture{"Unpack", nil, []*tensor.Tensor{m}},
		fixture{"Pad", map[string]any{"paddings": []int{1, 0, 0, 2}}, []*tensor.Tensor{m}},
		fixture{"Tile", map[string]any{"multiples": []int{2, 1}}, []*tensor.Tensor{m}},
		fixture{"OneHot", map[string]any{"depth": 3}, []*tensor.Tensor{ints(2, 0, 5)}},
		fixture{"Gather", nil, []*tensor.Tensor{m, ints(1, 1, 0)}},
		fixture{"DynamicPartition", map[string]any{"num_partitions": 3}, []*tensor.Tensor{m, ints(1, 0)}},
		fixture{"DynamicStitch", nil, []*tensor.Tensor{ints(0, 3), ints(1), m, row.ViewAs(tensor.Shape{1, 3})}},
		fixture{"UnsortedSegmentSum", map[string]any{"num_segments": 3}, []*tensor.Tensor{m, ints(2, 2)}},
	)

	covered := map[string]bool{}
	for _, r := range table {
		covered[r.op] = true
		if !ops.NoRetain(r.op) {
			t.Errorf("%s has a row but is not NoRetain", r.op)
			continue
		}
		g := graph.New()
		ins := make([]graph.Endpoint, len(r.inputs))
		for i, in := range r.inputs {
			c, err := g.AddNode("Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": in}})
			if err != nil {
				t.Fatal(err)
			}
			ins[i] = c.Out(0)
		}
		n, err := g.AddNode(r.op, ins, graph.NodeArgs{Attrs: r.attrs})
		if err != nil {
			t.Fatalf("AddNode(%s): %v", r.op, err)
		}
		kernel, err := ops.LookupKernel(r.op, "CPU")
		if err != nil {
			t.Fatal(err)
		}
		run := func(alloc tensor.Alloc) []ops.Value {
			ctx := &ops.OpContext{Node: n, Inputs: make([]ops.Value, len(r.inputs)), Outputs: make([]ops.Value, n.NumOutputs()), Alloc: alloc}
			for i, in := range r.inputs {
				ctx.Inputs[i] = ops.Value{Tensor: in}
			}
			if err := kernel(ctx); err != nil {
				t.Fatalf("%s: %v", r.op, err)
			}
			return ctx.Outputs
		}
		heap, handed := run(tensor.New), sentinelAlloc{}
		for i, v := range run(handed.alloc) {
			if !handed[v.Tensor] {
				t.Errorf("%s %v: output %d is not a buffer ctx.Alloc handed out", r.op, r.attrs, i)
				continue
			}
			var want, got bytes.Buffer
			if _, err := heap[i].Tensor.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Tensor.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s %v: output %d from a dirty buffer is %v, from a clean one %v", r.op, r.attrs, i, v.Tensor, heap[i].Tensor)
			}
		}
	}
	for _, op := range graph.RegisteredOps() {
		if def, _ := graph.LookupOp(op); ops.NoRetain(op) && !def.Stateful && !covered[op] {
			t.Errorf("NoRetain op %s has no row", op)
		}
	}
}
