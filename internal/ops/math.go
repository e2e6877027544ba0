package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerMathOps()
}

func registerMathOps() {
	// Element-wise binary operations with broadcasting. The paper lists
	// element-wise operators as the canonical multi-device kernels (§3.3).
	for name, bop := range map[string]tensor.BinaryOp{
		"Add": tensor.OpAdd, "Sub": tensor.OpSub, "Mul": tensor.OpMul,
		"Div": tensor.OpDiv, "Pow": tensor.OpPow,
		"Maximum": tensor.OpMaximum, "Minimum": tensor.OpMinimum,
		"SquaredDifference": tensor.OpSquaredDifference,
	} {
		bop := bop
		graph.RegisterOp(&graph.OpDef{Type: name, MinInputs: 2, MaxInputs: 2, Infer: broadcastBinary})
		RegisterKernel(name, "CPU", func(ctx *OpContext) error {
			a, err := ctx.Input(0)
			if err != nil {
				return err
			}
			b, err := ctx.Input(1)
			if err != nil {
				return err
			}
			out, err := tensor.Binary(ctx.Alloc, bop, a, b)
			if err != nil {
				return err
			}
			ctx.SetOutput(0, out)
			return nil
		})
	}

	// Element-wise unary operations.
	for name, uop := range map[string]tensor.UnaryOp{
		"Neg": tensor.OpNeg, "Abs": tensor.OpAbs, "Exp": tensor.OpExp,
		"Log": tensor.OpLog, "Sqrt": tensor.OpSqrt, "Rsqrt": tensor.OpRsqrt,
		"Square": tensor.OpSquare, "Tanh": tensor.OpTanh,
		"Sigmoid": tensor.OpSigmoid, "Relu": tensor.OpRelu,
		"Sign": tensor.OpSign, "Floor": tensor.OpFloor, "Ceil": tensor.OpCeil,
		"Reciprocal": tensor.OpReciprocal,
	} {
		uop := uop
		graph.RegisterOp(&graph.OpDef{Type: name, MinInputs: 1, MaxInputs: 1, Infer: sameAsInput})
		RegisterKernel(name, "CPU", func(ctx *OpContext) error {
			a, err := ctx.Input(0)
			if err != nil {
				return err
			}
			out, err := tensor.Unary(ctx.Alloc, uop, a)
			if err != nil {
				return err
			}
			ctx.SetOutput(0, out)
			return nil
		})
	}

	// Fused activation gradients — the paper calls out hand-implemented
	// fused kernels for ReLU and Sigmoid gradients as profitable (§5).
	graph.RegisterOp(&graph.OpDef{Type: "ReluGrad", MinInputs: 2, MaxInputs: 2, Infer: sameAsInput})
	RegisterKernel("ReluGrad", "CPU", func(ctx *OpContext) error {
		grad, err := ctx.Input(0)
		if err != nil {
			return err
		}
		features, err := ctx.Input(1)
		if err != nil {
			return err
		}
		out, err := tensor.ReluGrad(ctx.Alloc, grad, features)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// SigmoidGrad(y, dy) = dy * y * (1-y); TanhGrad(y, dy) = dy * (1-y²).
	registerActivationGrad("SigmoidGrad", sigmoidGradLoop[float32], sigmoidGradLoop[float64],
		func(y, dy float64) float64 { return dy * y * (1 - y) })
	registerActivationGrad("TanhGrad", tanhGradLoop[float32], tanhGradLoop[float64],
		func(y, dy float64) float64 { return dy * (1 - float64(y*y)) })

	// AddN is the canonical variadic op (§3.1): N inputs of one type.
	graph.RegisterOp(&graph.OpDef{
		Type: "AddN", MinInputs: 1, MaxInputs: -1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if want := n.AttrInt("N", len(in)); want != len(in) {
				return nil, fmt.Errorf("AddN attribute N=%d does not match %d inputs", want, len(in))
			}
			for _, s := range in[1:] {
				if s.DType != in[0].DType {
					return nil, fmt.Errorf("AddN inputs must share a dtype")
				}
			}
			return sameAsInput(n, in)
		},
	})
	RegisterKernel("AddN", "CPU", func(ctx *OpContext) error {
		ts := make([]*tensor.Tensor, len(ctx.Inputs))
		for i := range ctx.Inputs {
			t, err := ctx.Input(i)
			if err != nil {
				return err
			}
			ts[i] = t
		}
		out, err := tensor.AddN(ctx.Alloc, ts)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// MatMul with transpose attributes.
	graph.RegisterOp(&graph.OpDef{
		Type: "MatMul", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[0].DType != in[1].DType {
				return nil, fmt.Errorf("MatMul dtype mismatch %v vs %v", in[0].DType, in[1].DType)
			}
			ta, tb := n.AttrBool("transpose_a", false), n.AttrBool("transpose_b", false)
			a, b := in[0].Shape, in[1].Shape
			if a.Rank() != 2 || b.Rank() != 2 {
				return nil, fmt.Errorf("MatMul needs rank-2 inputs, got %v and %v", a, b)
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
				return nil, fmt.Errorf("MatMul inner dims %d vs %d", ka, kb)
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: tensor.Shape{m, nn}}}, nil
		},
	})
	RegisterKernel("MatMul", "CPU", func(ctx *OpContext) error {
		a, err := ctx.Input(0)
		if err != nil {
			return err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return err
		}
		ta, tb := ctx.Node.AttrBool("transpose_a", false), ctx.Node.AttrBool("transpose_b", false)
		out, err := tensor.FusedMatMul(ctx.Alloc, a, b, nil, ta, tb, false)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "BatchMatMul", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[0].Shape.Rank() != 3 || in[1].Shape.Rank() != 3 {
				return nil, fmt.Errorf("BatchMatMul needs rank-3 inputs")
			}
			return []graph.IOSpec{{DType: in[0].DType,
				Shape: tensor.Shape{in[0].Shape[0], in[0].Shape[1], in[1].Shape[2]}}}, nil
		},
	})
	RegisterKernel("BatchMatMul", "CPU", func(ctx *OpContext) error {
		a, err := ctx.Input(0)
		if err != nil {
			return err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return err
		}
		out, err := tensor.BatchMatMul(ctx.Alloc, a, b)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// Comparisons.
	for name, cop := range map[string]tensor.CompareOp{
		"Equal": tensor.CmpEqual, "NotEqual": tensor.CmpNotEqual,
		"Less": tensor.CmpLess, "LessEqual": tensor.CmpLessEqual,
		"Greater": tensor.CmpGreater, "GreaterEqual": tensor.CmpGreaterEqual,
	} {
		cop := cop
		graph.RegisterOp(&graph.OpDef{Type: name, MinInputs: 2, MaxInputs: 2, Infer: comparisonBinary})
		RegisterKernel(name, "CPU", func(ctx *OpContext) error {
			a, err := ctx.Input(0)
			if err != nil {
				return err
			}
			b, err := ctx.Input(1)
			if err != nil {
				return err
			}
			if a.Shape().IsScalar() && b.Shape().IsScalar() && a.DType() == b.DType() && a.DType().IsNumeric() {
				// The shape of a loop predicate, evaluated every iteration: a
				// shared scalar, which the executor never recycles (behavior.go).
				ctx.SetOutput(0, scalarBools[cop.Apply(a.FloatAt(0), b.FloatAt(0))])
				return nil
			}
			out, err := tensor.Compare(ctx.Alloc, cop, a, b)
			if err != nil {
				return err
			}
			ctx.SetOutput(0, out)
			return nil
		})
	}

	for _, name := range []string{"LogicalAnd", "LogicalOr"} {
		lop := map[string]string{"LogicalAnd": "and", "LogicalOr": "or"}[name]
		graph.RegisterOp(&graph.OpDef{Type: name, MinInputs: 2, MaxInputs: 2,
			Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
				if in[0].DType != tensor.Bool || in[1].DType != tensor.Bool {
					return nil, fmt.Errorf("%s needs bool inputs", n.Op())
				}
				return sameAsInput(n, in)
			}})
		RegisterKernel(name, "CPU", func(ctx *OpContext) error {
			a, err := ctx.Input(0)
			if err != nil {
				return err
			}
			b, err := ctx.Input(1)
			if err != nil {
				return err
			}
			out, err := tensor.Logical(ctx.Alloc, lop, a, b)
			if err != nil {
				return err
			}
			ctx.SetOutput(0, out)
			return nil
		})
	}

	graph.RegisterOp(&graph.OpDef{Type: "LogicalNot", MinInputs: 1, MaxInputs: 1, Infer: sameAsInput})
	RegisterKernel("LogicalNot", "CPU", func(ctx *OpContext) error {
		a, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out := ctx.Alloc(tensor.Bool, a.Shape())
		for i, v := range a.Bools() {
			out.Bools()[i] = !v
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Select", MinInputs: 3, MaxInputs: 3,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{{DType: in[1].DType, Shape: in[1].Shape.Clone()}}, nil
		},
	})
	RegisterKernel("Select", "CPU", func(ctx *OpContext) error {
		cond, err := ctx.Input(0)
		if err != nil {
			return err
		}
		a, err := ctx.Input(1)
		if err != nil {
			return err
		}
		b, err := ctx.Input(2)
		if err != nil {
			return err
		}
		out, err := tensor.Select(ctx.Alloc, cond, a, b)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// Reductions. The reduction axes are the "reduction_indices" attr; an
	// absent attr reduces every dimension.
	for name, rop := range map[string]tensor.ReduceOp{
		"Sum": tensor.ReduceSum, "Mean": tensor.ReduceMean,
		"Max": tensor.ReduceMax, "Min": tensor.ReduceMin, "Prod": tensor.ReduceProd,
	} {
		rop := rop
		graph.RegisterOp(&graph.OpDef{
			Type: name, MinInputs: 1, MaxInputs: 1,
			Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
				if err := numericCheck(in[0], n.Op()+" input"); err != nil {
					return nil, err
				}
				axes, hasAxes := n.AttrInts("reduction_indices")
				keep := n.AttrBool("keep_dims", false)
				rank := in[0].Shape.Rank()
				if !hasAxes {
					if keep {
						s := make(tensor.Shape, rank)
						for i := range s {
							s[i] = 1
						}
						return []graph.IOSpec{{DType: in[0].DType, Shape: s}}, nil
					}
					return []graph.IOSpec{scalarSpec(in[0].DType)}, nil
				}
				reduced := map[int]bool{}
				for _, a := range axes {
					if a < 0 {
						a += rank
					}
					if a < 0 || a >= rank {
						return nil, fmt.Errorf("%s axis %d out of range for rank %d", n.Op(), a, rank)
					}
					reduced[a] = true
				}
				out := tensor.Shape{}
				for i, d := range in[0].Shape {
					if reduced[i] {
						if keep {
							out = append(out, 1)
						}
					} else {
						out = append(out, d)
					}
				}
				return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
			},
		})
		RegisterKernel(name, "CPU", func(ctx *OpContext) error {
			a, err := ctx.Input(0)
			if err != nil {
				return err
			}
			axes, _ := ctx.Node.AttrInts("reduction_indices")
			out, err := tensor.Reduce(ctx.Alloc, rop, a, axes, ctx.Node.AttrBool("keep_dims", false))
			if err != nil {
				return err
			}
			ctx.SetOutput(0, out)
			return nil
		})
	}

	graph.RegisterOp(&graph.OpDef{
		Type: "ArgMax", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			axis := n.AttrInt("axis", 0)
			rank := in[0].Shape.Rank()
			if axis < 0 {
				axis += rank
			}
			if axis < 0 || axis >= rank {
				return nil, fmt.Errorf("ArgMax axis %d out of range for rank %d", axis, rank)
			}
			out := tensor.Shape{}
			for i, d := range in[0].Shape {
				if i != axis {
					out = append(out, d)
				}
			}
			return []graph.IOSpec{{DType: tensor.Int64, Shape: out}}, nil
		},
	})
	RegisterKernel("ArgMax", "CPU", func(ctx *OpContext) error {
		a, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out, err := tensor.ArgMax(ctx.Alloc, a, ctx.Node.AttrInt("axis", 0))
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// L2Loss(t) = sum(t²)/2, the standard weight-decay building block.
	graph.RegisterOp(&graph.OpDef{
		Type: "L2Loss", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{scalarSpec(in[0].DType)}, nil
		},
	})
	RegisterKernel("L2Loss", "CPU", func(ctx *OpContext) error {
		a, err := ctx.Input(0)
		if err != nil {
			return err
		}
		var sum float64
		n := a.NumElements()
		for i := 0; i < n; i++ {
			v := a.FloatAt(i)
			sum += v * v
		}
		out := ctx.Alloc(a.DType(), tensor.ScalarShape())
		out.SetFloat(0, sum/2)
		ctx.SetOutput(0, out)
		return nil
	})
}

// registerActivationGrad installs the kernel of a fused activation gradient
// out = f(y, dy). Every element is computed in float64 and rounded once to
// the element type. When y and dy share a float dtype that runs as a typed
// slice loop; any other pairing goes element by element through f, which
// the loops must match bit for bit.
func registerActivationGrad(op string, f32 func(out, y, dy []float32), f64 func(out, y, dy []float64), f func(y, dy float64) float64) {
	graph.RegisterOp(&graph.OpDef{Type: op, MinInputs: 2, MaxInputs: 2, Infer: sameAsInput})
	RegisterKernel(op, "CPU", func(ctx *OpContext) error {
		y, err := ctx.Input(0)
		if err != nil {
			return err
		}
		dy, err := ctx.Input(1)
		if err != nil {
			return err
		}
		out := ctx.Alloc(y.DType(), y.Shape())
		switch {
		case y.DType() == tensor.Float32 && dy.DType() == tensor.Float32:
			f32(out.Float32s(), y.Float32s(), dy.Float32s())
		case y.DType() == tensor.Float64 && dy.DType() == tensor.Float64:
			f64(out.Float64s(), y.Float64s(), dy.Float64s())
		default:
			for i, n := 0, y.NumElements(); i < n; i++ {
				out.SetFloat(i, f(y.FloatAt(i), dy.FloatAt(i)))
			}
		}
		ctx.SetOutput(0, out)
		return nil
	})
}

func sigmoidGradLoop[T float32 | float64](out, y, dy []T) {
	for i, v := range y {
		yv := float64(v)
		out[i] = T(float64(dy[i]) * yv * (1 - yv))
	}
}

func tanhGradLoop[T float32 | float64](out, y, dy []T) {
	for i, v := range y {
		yv := float64(v)
		out[i] = T(float64(dy[i]) * (1 - float64(yv*yv))) // rounded y², as on amd64
	}
}
