package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerGradSupportOps()
}

// registerGradSupportOps installs the ops consumed only by the user-level
// differentiation library (§4.1): reduction gradients that re-broadcast a
// reduced gradient over the original input's runtime shape, and the
// broadcast-undo reduction for binary-op gradients.
func registerGradSupportOps() {
	// SumGrad(x, gradOut) broadcasts gradOut (the gradient of Sum(x))
	// back over x's shape. MeanGrad also divides by the reduction count.
	reduceGradInfer := func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
		return []graph.IOSpec{{DType: in[1].DType, Shape: in[0].Shape.Clone()}}, nil
	}
	for _, op := range []string{"SumGrad", "MeanGrad"} {
		isMean := op == "MeanGrad"
		graph.RegisterOp(&graph.OpDef{Type: op, MinInputs: 2, MaxInputs: 2, Infer: reduceGradInfer})
		RegisterKernel(op, "CPU", func(ctx *OpContext) error {
			x, err := ctx.Input(0)
			if err != nil {
				return err
			}
			g, err := ctx.Input(1)
			if err != nil {
				return err
			}
			axes, hasAxes := ctx.Node.AttrInts("reduction_indices")
			rank := x.Rank()
			reduced := make([]bool, rank)
			if !hasAxes {
				for i := range reduced {
					reduced[i] = true
				}
			} else {
				for _, a := range axes {
					if a < 0 {
						a += rank
					}
					if a < 0 || a >= rank {
						return fmt.Errorf("%s axis %d out of range", ctx.Node.Op(), a)
					}
					reduced[a] = true
				}
			}
			count := 1
			for i, d := range x.Shape() {
				if reduced[i] {
					count *= d
				}
			}
			scale := 1.0
			if isMean && count > 0 {
				scale = 1 / float64(count)
			}
			out, err := tensor.ReduceGrad(g, x.Shape(), reduced, scale)
			if err != nil {
				return fmt.Errorf("%s: %w", ctx.Node.Op(), err)
			}
			ctx.SetOutput(0, out)
			return nil
		})
	}

	// SumToShape(x, likeShape) reduces x over the axes that were expanded
	// by broadcasting so the result has the runtime shape carried in
	// likeShape (an int32 vector, usually Shape(operand)).
	graph.RegisterOp(&graph.OpDef{
		Type: "SumToShape", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[1].DType.IsInteger() {
				return nil, fmt.Errorf("SumToShape target must be an integer shape vector")
			}
			rank := -1
			if in[1].Shape.Rank() == 1 && in[1].Shape[0] >= 0 {
				rank = in[1].Shape[0]
			}
			if rank < 0 {
				return []graph.IOSpec{unknownSpec(in[0].DType, 0)}, nil
			}
			return []graph.IOSpec{unknownSpec(in[0].DType, rank)}, nil
		},
	})
	RegisterKernel("SumToShape", "CPU", func(ctx *OpContext) error {
		x, err := ctx.Input(0)
		if err != nil {
			return err
		}
		sv, err := ctx.Input(1)
		if err != nil {
			return err
		}
		target := make(tensor.Shape, sv.NumElements())
		for i := range target {
			target[i] = sv.IntAt(i)
		}
		if x.Shape().Equal(target) {
			ctx.SetOutput(0, x)
			return nil
		}
		// Sum the leading extra axes, then the stretched axes.
		cur := x
		for cur.Rank() > len(target) {
			var e error
			cur, e = tensor.Reduce(tensor.ReduceSum, cur, []int{0}, false)
			if e != nil {
				return e
			}
		}
		var axes []int
		for i, d := range target {
			if cur.Shape()[i] != d {
				if d != 1 {
					return fmt.Errorf("SumToShape: cannot reduce %v to %v", x.Shape(), target)
				}
				axes = append(axes, i)
			}
		}
		if len(axes) > 0 {
			var e error
			cur, e = tensor.Reduce(tensor.ReduceSum, cur, axes, true)
			if e != nil {
				return e
			}
		}
		ctx.SetOutput(0, cur)
		return nil
	})
}
