package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerCoreOps()
}

func registerCoreOps() {
	// Const produces the tensor stored in its "value" attribute. It is
	// the simplest operation in the paper's taxonomy (§3.1): no inputs,
	// one output, behavior fully determined by attributes.
	graph.RegisterOp(&graph.OpDef{
		Type: "Const", MinInputs: 0, MaxInputs: 0,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			v, ok := n.AttrTensor("value")
			if !ok {
				return nil, fmt.Errorf("Const needs a value attribute")
			}
			return []graph.IOSpec{{DType: v.DType(), Shape: v.Shape().Clone()}}, nil
		},
	})
	RegisterKernel("Const", "CPU", func(ctx *OpContext) error {
		v, _ := ctx.Node.AttrTensor("value")
		ctx.SetOutput(0, v)
		return nil
	})

	// Placeholder must be fed (§3.2). Its kernel only ever runs when the
	// client failed to feed it, so it reports that error.
	graph.RegisterOp(&graph.OpDef{
		Type: "Placeholder", MinInputs: 0, MaxInputs: 0,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			dt := n.AttrDType("dtype", tensor.Float32)
			shape, ok := n.AttrShape("shape")
			if !ok {
				return []graph.IOSpec{unknownSpec(dt, 0)}, nil
			}
			return []graph.IOSpec{{DType: dt, Shape: shape.Clone()}}, nil
		},
	})
	RegisterKernel("Placeholder", "CPU", func(ctx *OpContext) error {
		return fmt.Errorf("placeholder %s was not fed", ctx.Node.Name())
	})

	for _, op := range []string{"Identity", "StopGradient", "PreventGradient"} {
		graph.RegisterOp(&graph.OpDef{Type: op, MinInputs: 1, MaxInputs: 1, Infer: sameAsInput})
		RegisterKernel(op, "CPU", func(ctx *OpContext) error {
			ctx.Outputs[0] = ctx.Inputs[0]
			return nil
		})
	}

	// NoOp exists purely for control dependencies (e.g. grouped updates).
	graph.RegisterOp(&graph.OpDef{
		Type: "NoOp", MinInputs: 0, MaxInputs: 0, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return nil, nil
		},
	})
	RegisterKernel("NoOp", "CPU", func(ctx *OpContext) error { return nil })

	graph.RegisterOp(&graph.OpDef{
		Type: "Shape", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{{DType: tensor.Int32, Shape: tensor.Shape{in[0].Shape.Rank()}}}, nil
		},
	})
	RegisterKernel("Shape", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		s := t.Shape()
		out := ctx.Alloc(tensor.Int32, tensor.Shape{len(s)})
		for i, d := range s {
			out.Int32s()[i] = int32(d)
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Size", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{scalarSpec(tensor.Int32)}, nil
		},
	})
	RegisterKernel("Size", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out := ctx.Alloc(tensor.Int32, tensor.ScalarShape())
		out.Int32s()[0] = int32(t.NumElements())
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Rank", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{scalarSpec(tensor.Int32)}, nil
		},
	})
	RegisterKernel("Rank", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out := ctx.Alloc(tensor.Int32, tensor.ScalarShape())
		out.Int32s()[0] = int32(t.Rank())
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Cast", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			dt := n.AttrDType("DstT", tensor.Float32)
			return []graph.IOSpec{{DType: dt, Shape: in[0].Shape.Clone()}}, nil
		},
	})
	RegisterKernel("Cast", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out, err := t.Cast(ctx.Alloc, ctx.Node.AttrDType("DstT", tensor.Float32))
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	for _, spec := range []struct {
		op   string
		fill float64
	}{{"ZerosLike", 0}, {"OnesLike", 1}} {
		fill := spec.fill
		graph.RegisterOp(&graph.OpDef{Type: spec.op, MinInputs: 1, MaxInputs: 1, Infer: sameAsInput})
		RegisterKernel(spec.op, "CPU", func(ctx *OpContext) error {
			t, err := ctx.Input(0)
			if err != nil {
				return err
			}
			ctx.SetOutput(0, tensor.Fill(ctx.Alloc, t.DType(), t.Shape(), fill))
			return nil
		})
	}

	// Fill(dims, value) builds a tensor of the given runtime shape.
	graph.RegisterOp(&graph.OpDef{
		Type: "Fill", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[0].DType.IsInteger() {
				return nil, fmt.Errorf("Fill dims must be integer")
			}
			rank := -1
			if in[0].Shape.Rank() == 1 && in[0].Shape[0] >= 0 {
				rank = in[0].Shape[0]
			}
			if rank < 0 {
				return []graph.IOSpec{unknownSpec(in[1].DType, 0)}, nil
			}
			return []graph.IOSpec{unknownSpec(in[1].DType, rank)}, nil
		},
	})
	RegisterKernel("Fill", "CPU", func(ctx *OpContext) error {
		dims, err := ctx.Input(0)
		if err != nil {
			return err
		}
		val, err := ctx.Input(1)
		if err != nil {
			return err
		}
		shape := make(tensor.Shape, dims.NumElements())
		for i := range shape {
			shape[i] = dims.IntAt(i)
		}
		ctx.SetOutput(0, tensor.Fill(ctx.Alloc, val.DType(), shape, val.FloatAt(0)))
		return nil
	})

	// Range(start, limit, delta) produces a 1-D sequence.
	graph.RegisterOp(&graph.OpDef{
		Type: "Range", MinInputs: 3, MaxInputs: 3,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{unknownSpec(in[0].DType, 1)}, nil
		},
	})
	RegisterKernel("Range", "CPU", func(ctx *OpContext) error {
		start, err := ctx.Input(0)
		if err != nil {
			return err
		}
		limit, err := ctx.Input(1)
		if err != nil {
			return err
		}
		delta, err := ctx.Input(2)
		if err != nil {
			return err
		}
		s, l, d := start.FloatAt(0), limit.FloatAt(0), delta.FloatAt(0)
		if d == 0 {
			return fmt.Errorf("Range delta must be non-zero")
		}
		n := 0
		if (d > 0 && l > s) || (d < 0 && l < s) {
			n = int(math.Ceil((l - s) / d))
		}
		out := ctx.Alloc(start.DType(), tensor.Shape{n})
		for i := 0; i < n; i++ {
			out.SetFloat(i, s+float64(i)*d)
		}
		ctx.SetOutput(0, out)
		return nil
	})
}
