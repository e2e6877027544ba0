package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerStateOps()
}

// varResourceName returns the shared-state name for a Variable node: the
// "shared_name" attribute if present, otherwise the node name. Placement
// colocates all ops touching the same reference on one device (§3.3), so a
// name is unique within that device's resource manager.
func varResourceName(n *graph.Node) string {
	return n.AttrString("shared_name", n.Name())
}

func registerStateOps() {
	// Variable owns a mutable buffer storing model parameters (§3.1). It
	// has no inputs and produces a reference handle — "a typed capability
	// for reading and writing the buffer".
	graph.RegisterOp(&graph.OpDef{
		Type: "Variable", MinInputs: 0, MaxInputs: 0, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			dt := n.AttrDType("dtype", tensor.Invalid)
			if dt == tensor.Invalid {
				return nil, fmt.Errorf("Variable needs a dtype attribute")
			}
			shape, ok := n.AttrShape("shape")
			if !ok {
				return nil, fmt.Errorf("Variable needs a shape attribute")
			}
			return []graph.IOSpec{{DType: dt, Shape: shape.Clone(), IsRef: true}}, nil
		},
	})
	RegisterKernel("Variable", "CPU", func(ctx *OpContext) error {
		dt := ctx.Node.AttrDType("dtype", tensor.Float32)
		shape, _ := ctx.Node.AttrShape("shape")
		v := ctx.Resources.FindOrCreateVariable(varResourceName(ctx.Node), dt, shape)
		ctx.SetOutputRef(0, &Resource{Kind: ResourceVariable, Name: varResourceName(ctx.Node), Var: v})
		return nil
	})

	// Read produces the variable's current value as a dense tensor: a lease
	// the executor returns when ctx.Private says so, an escape otherwise.
	graph.RegisterOp(&graph.OpDef{
		Type: "Read", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[0].IsRef {
				return nil, fmt.Errorf("Read input must be a reference")
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone()}}, nil
		},
	})
	RegisterKernel("Read", "CPU", func(ctx *OpContext) error {
		v, err := ctx.InputVar(0)
		if err != nil {
			return err
		}
		read := v.Read
		if ctx.Private {
			read = v.Lease
		}
		val, err := read()
		if err != nil {
			return fmt.Errorf("%w (variable %s)", err, ctx.Node.Input(0).Node.Name())
		}
		ctx.SetOutput(0, val)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "IsVariableInitialized", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{scalarSpec(tensor.Bool)}, nil
		},
	})
	RegisterKernel("IsVariableInitialized", "CPU", func(ctx *OpContext) error {
		v, err := ctx.InputVar(0)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, tensor.ScalarBool(v.Initialized()))
		return nil
	})

	// Assign writes a new value and forwards it, so initialization chains
	// compose. The variable gets a copy: the operand may be a fed tensor
	// whose buffer the caller reuses after the step, and nothing on the edge
	// says which. AssignAdd/AssignSub implement the += / -= specialized
	// writes that parameter servers are built around (§2.2, §4.1); they
	// read the delta during the call and keep none of it.
	refUpdateInfer := func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
		if !in[0].IsRef {
			return nil, fmt.Errorf("%s input 0 must be a variable reference", n.Op())
		}
		if in[0].DType != in[1].DType {
			return nil, fmt.Errorf("%s value dtype %v does not match variable %v", n.Op(), in[1].DType, in[0].DType)
		}
		return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone()}}, nil
	}
	graph.RegisterOp(&graph.OpDef{Type: "Assign", MinInputs: 2, MaxInputs: 2, Stateful: true, Infer: refUpdateInfer})
	RegisterKernel("Assign", "CPU", func(ctx *OpContext) error {
		v, err := ctx.InputVar(0)
		if err != nil {
			return err
		}
		val, err := ctx.Input(1)
		if err != nil {
			return err
		}
		if err := v.Assign(val.Clone()); err != nil {
			return err
		}
		ctx.SetOutput(0, val)
		return nil
	})

	for _, spec := range []struct {
		op  string
		bop tensor.BinaryOp
	}{{"AssignAdd", tensor.OpAdd}, {"AssignSub", tensor.OpSub}} {
		bop := spec.bop
		graph.RegisterOp(&graph.OpDef{Type: spec.op, MinInputs: 2, MaxInputs: 2, Stateful: true, Infer: refUpdateInfer})
		RegisterKernel(spec.op, "CPU", func(ctx *OpContext) error {
			v, err := ctx.InputVar(0)
			if err != nil {
				return err
			}
			delta, err := ctx.Input(1)
			if err != nil {
				return err
			}
			result, err := v.Replace(ctx.Alloc, ctx.Private, func(alloc tensor.Alloc, cur *tensor.Tensor) (*tensor.Tensor, error) {
				return tensor.Binary(alloc, bop, cur, delta)
			})
			if err != nil {
				return err
			}
			ctx.SetOutput(0, result)
			return nil
		})
	}

	// ApplyMomentum is the dense Momentum update as one kernel, as the
	// reference implementation fuses its training ops: accum ← momentum·accum
	// + grad, var ← var − lr·accum, in one pass and with the unfused chain's
	// roundings. The velocity slot is written in place (only this op reads it);
	// the parameter is written into the variable's spare, because the forward
	// pass may still hold the current value. Like AssignSub it forwards the
	// new parameter and keeps none of its inputs.
	graph.RegisterOp(&graph.OpDef{
		Type: "ApplyMomentum", MinInputs: 5, MaxInputs: 5, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[0].IsRef || !in[1].IsRef {
				return nil, fmt.Errorf("ApplyMomentum var and accum must be variable references")
			}
			for _, s := range in[1:] {
				if s.DType != in[0].DType {
					return nil, fmt.Errorf("ApplyMomentum operand dtype %v does not match variable %v", s.DType, in[0].DType)
				}
			}
			if !in[0].DType.IsFloat() {
				return nil, fmt.Errorf("ApplyMomentum needs a float variable, got %v", in[0].DType)
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone()}}, nil
		},
	})
	RegisterKernel("ApplyMomentum", "CPU", func(ctx *OpContext) error {
		v, err := ctx.InputVar(0)
		if err != nil {
			return err
		}
		accum, err := ctx.InputVar(1)
		if err != nil {
			return err
		}
		if accum == v {
			return fmt.Errorf("ApplyMomentum: var and accum are one variable")
		}
		var in [3]*tensor.Tensor // lr, grad, momentum
		for i := range in {
			if in[i], err = ctx.Input(2 + i); err != nil {
				return err
			}
		}
		var result *tensor.Tensor
		err = accum.Mutate(func(acc *tensor.Tensor) error {
			result, err = v.Replace(ctx.Alloc, ctx.Private, func(alloc tensor.Alloc, cur *tensor.Tensor) (*tensor.Tensor, error) {
				return tensor.ApplyMomentum(alloc, cur, acc, in[0], in[1], in[2])
			})
			return err
		})
		if err != nil {
			return err
		}
		ctx.SetOutput(0, result)
		return nil
	})

	// Sparse writes: ScatterAdd/ScatterSub accumulate per-row updates in
	// place — the write half of the sharded embedding layer (§4.2), which
	// touches only the rows that the step gathered — and ScatterUpdate
	// overwrites them.
	scatterInfer := func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
		if !in[0].IsRef {
			return nil, fmt.Errorf("%s input 0 must be a variable reference", n.Op())
		}
		if !in[1].DType.IsInteger() {
			return nil, fmt.Errorf("%s indices must be integer", n.Op())
		}
		return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone(), IsRef: true}}, nil
	}
	for _, spec := range []struct {
		op string
		fn func(params, indices, updates *tensor.Tensor) error
	}{
		{"ScatterAdd", tensor.ScatterAddInPlace},
		{"ScatterSub", tensor.ScatterSubInPlace},
		{"ScatterUpdate", tensor.ScatterUpdateInPlace},
	} {
		fn := spec.fn
		graph.RegisterOp(&graph.OpDef{Type: spec.op, MinInputs: 3, MaxInputs: 3, Stateful: true, Infer: scatterInfer})
		RegisterKernel(spec.op, "CPU", func(ctx *OpContext) error {
			v, err := ctx.InputVar(0)
			if err != nil {
				return err
			}
			indices, err := ctx.Input(1)
			if err != nil {
				return err
			}
			updates, err := ctx.Input(2)
			if err != nil {
				return err
			}
			err = v.Mutate(func(cur *tensor.Tensor) error {
				return fn(cur, indices, updates)
			})
			if err != nil {
				return err
			}
			ctx.Outputs[0] = ctx.Inputs[0]
			return nil
		})
	}

	// CountUpToOrDie increments an int variable and fails past a limit;
	// used by bounded input pipelines and tests.
	graph.RegisterOp(&graph.OpDef{
		Type: "CountUpTo", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[0].IsRef || !in[0].DType.IsInteger() {
				return nil, fmt.Errorf("CountUpTo input must be an integer variable reference")
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: tensor.ScalarShape()}}, nil
		},
	})
	RegisterKernel("CountUpTo", "CPU", func(ctx *OpContext) error {
		v, err := ctx.InputVar(0)
		if err != nil {
			return err
		}
		limit := ctx.Node.AttrInt("limit", 0)
		var out *tensor.Tensor
		err = v.Mutate(func(cur *tensor.Tensor) error {
			if cur.IntAt(0) >= limit {
				return fmt.Errorf("CountUpTo reached limit %d", limit)
			}
			out = cur.Clone()
			if cur.DType() == tensor.Int32 {
				cur.Int32s()[0]++
			} else {
				cur.Int64s()[0]++
			}
			return nil
		})
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})
}
