package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerFusedOps()
}

// FusedMatMul(a, b[, bias]) computes activation(op(a)·op(b) + bias) in one
// kernel — the target the fusion pass rewrites MatMul+BiasAdd(+Relu)
// chains onto (§5: hand-fused kernels for hot paths). Attributes:
// transpose_a/transpose_b as on MatMul, and "activation", either "" (none)
// or "Relu". The bias input is optional and must be rank-1 of the output's
// column count.
func registerFusedOps() {
	graph.RegisterOp(&graph.OpDef{
		Type: "FusedMatMul", MinInputs: 2, MaxInputs: 3,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[0].DType != in[1].DType {
				return nil, fmt.Errorf("FusedMatMul dtype mismatch %v vs %v", in[0].DType, in[1].DType)
			}
			ta, tb := n.AttrBool("transpose_a", false), n.AttrBool("transpose_b", false)
			a, b := in[0].Shape, in[1].Shape
			if a.Rank() != 2 || b.Rank() != 2 {
				return nil, fmt.Errorf("FusedMatMul needs rank-2 inputs, got %v and %v", a, b)
			}
			m, ka := a[0], a[1]
			if ta {
				m, ka = ka, m
			}
			kb, nn := b[0], b[1]
			if tb {
				kb, nn = nn, kb
			}
			if ka >= 0 && kb >= 0 && ka != kb {
				return nil, fmt.Errorf("FusedMatMul inner dims %d vs %d", ka, kb)
			}
			if len(in) == 3 {
				bs := in[2].Shape
				if bs.Rank() != 1 {
					return nil, fmt.Errorf("FusedMatMul bias must be rank-1, got %v", bs)
				}
				if bs[0] >= 0 && nn >= 0 && bs[0] != nn {
					return nil, fmt.Errorf("FusedMatMul bias length %d != output columns %d", bs[0], nn)
				}
			}
			if act := n.AttrString("activation", ""); act != "" && act != "Relu" {
				return nil, fmt.Errorf("FusedMatMul unsupported activation %q", act)
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: tensor.Shape{m, nn}}}, nil
		},
	})
	RegisterKernel("FusedMatMul", "CPU", func(ctx *OpContext) error {
		a, err := ctx.Input(0)
		if err != nil {
			return err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return err
		}
		var bias *tensor.Tensor
		if len(ctx.Inputs) == 3 {
			if bias, err = ctx.Input(2); err != nil {
				return err
			}
		}
		ta, tb := ctx.Node.AttrBool("transpose_a", false), ctx.Node.AttrBool("transpose_b", false)
		relu := ctx.Node.AttrString("activation", "") == "Relu"
		outShape, err := tensor.MatMulOutShape(a, b, ta, tb)
		if err != nil {
			return err
		}
		out, err := tensor.FusedMatMulBias(ctx.Alloc(a.DType(), outShape), a, b, bias, ta, tb, relu)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})
}
