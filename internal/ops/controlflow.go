package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerControlFlowOps()
}

// smallInts and scalarBools are shared immutable scalars. Merge's
// value_index, the stack ops' depth tokens and a loop's scalar predicate are
// produced once per loop iteration and take few distinct values; like
// Const's attribute tensor, consumers only read them, so they need no
// per-execution allocation.
var (
	smallInts = func() (ts [256]*tensor.Tensor) {
		for i := range ts {
			ts[i] = tensor.ScalarInt(int32(i))
		}
		return ts
	}()
	scalarBools = map[bool]*tensor.Tensor{false: tensor.ScalarBool(false), true: tensor.ScalarBool(true)}
)

// smallInt returns an int32 scalar holding v, shared when v is small.
func smallInt(v int) *tensor.Tensor {
	if v >= 0 && v < len(smallInts) {
		return smallInts[v]
	}
	return tensor.ScalarInt(int32(v))
}

// Control flow follows §3.4: Switch and Merge are the conditional
// primitives from Arvind & Culler's dynamic dataflow architectures, and
// Enter/Exit/NextIteration add the frame structure borrowed from timely
// dataflow for iteration. Deadness propagation and Merge's
// fire-on-first-live-input behavior live in the executor; the kernels here
// implement only the value-level semantics.
func registerControlFlowOps() {
	// Switch(data, pred) forwards data to output 1 if pred is true, else
	// to output 0; the untaken side becomes a dead value.
	graph.RegisterOp(&graph.OpDef{
		Type: "Switch", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[1].DType != tensor.Bool {
				return nil, fmt.Errorf("Switch predicate must be bool, got %v", in[1].DType)
			}
			out := graph.IOSpec{DType: in[0].DType, Shape: in[0].Shape.Clone(), IsRef: in[0].IsRef}
			return []graph.IOSpec{out, {DType: out.DType, Shape: out.Shape.Clone(), IsRef: out.IsRef}}, nil
		},
	})
	RegisterKernel("Switch", "CPU", func(ctx *OpContext) error {
		pred, err := ctx.Input(1)
		if err != nil {
			return err
		}
		if pred.DType() != tensor.Bool || !pred.Shape().IsScalar() {
			return fmt.Errorf("Switch predicate must be a bool scalar")
		}
		if pred.Bools()[0] {
			ctx.Outputs[0] = Value{Dead: true}
			ctx.Outputs[1] = ctx.Inputs[0]
		} else {
			ctx.Outputs[0] = ctx.Inputs[0]
			ctx.Outputs[1] = Value{Dead: true}
		}
		return nil
	})

	// Merge forwards its first live input; output 1 reports which input
	// fired. The executor schedules Merge as soon as one live input is
	// ready (non-strict evaluation, §3.4).
	graph.RegisterOp(&graph.OpDef{
		Type: "Merge", MinInputs: 1, MaxInputs: -1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{
				{DType: in[0].DType, Shape: in[0].Shape.Clone()},
				scalarSpec(tensor.Int32),
			}, nil
		},
	})
	RegisterKernel("Merge", "CPU", func(ctx *OpContext) error {
		for i, v := range ctx.Inputs {
			if !v.Dead && (v.Tensor != nil || v.Ref != nil) {
				ctx.Outputs[0] = v
				ctx.SetOutput(1, smallInt(i))
				return nil
			}
		}
		ctx.Outputs[0] = Value{Dead: true}
		ctx.Outputs[1] = Value{Dead: true}
		return nil
	})

	// Enter pushes a value into a loop frame; Exit pops it out;
	// NextIteration advances the iteration counter. Value-wise they are
	// identities — the executor interprets the frame attributes.
	graph.RegisterOp(&graph.OpDef{
		Type: "Enter", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if n.AttrString("frame_name", "") == "" {
				return nil, fmt.Errorf("Enter needs a frame_name attribute")
			}
			return sameAsInput(n, in)
		},
	})
	graph.RegisterOp(&graph.OpDef{Type: "Exit", MinInputs: 1, MaxInputs: 1, Infer: sameAsInput})
	graph.RegisterOp(&graph.OpDef{Type: "NextIteration", MinInputs: 1, MaxInputs: 1, Infer: sameAsInput})
	graph.RegisterOp(&graph.OpDef{
		Type: "LoopCond", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[0].DType != tensor.Bool {
				return nil, fmt.Errorf("LoopCond input must be bool")
			}
			return sameAsInput(n, in)
		},
	})
	for _, op := range []string{"Enter", "Exit", "NextIteration", "LoopCond"} {
		RegisterKernel(op, "CPU", func(ctx *OpContext) error {
			ctx.Outputs[0] = ctx.Inputs[0]
			return nil
		})
	}

	// ControlTrigger is a control-edge junction that fires even when its
	// inputs are dead, re-animating downstream execution.
	graph.RegisterOp(&graph.OpDef{
		Type: "ControlTrigger", MinInputs: 0, MaxInputs: 0, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return nil, nil
		},
	})
	RegisterKernel("ControlTrigger", "CPU", func(ctx *OpContext) error { return nil })

	// Assert fails the step when its predicate is false.
	graph.RegisterOp(&graph.OpDef{
		Type: "Assert", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[0].DType != tensor.Bool {
				return nil, fmt.Errorf("Assert input must be bool")
			}
			return nil, nil
		},
	})
	RegisterKernel("Assert", "CPU", func(ctx *OpContext) error {
		pred, err := ctx.Input(0)
		if err != nil {
			return err
		}
		for _, v := range pred.Bools() {
			if !v {
				return fmt.Errorf("assertion failed: %s", ctx.Node.AttrString("message", ctx.Node.Name()))
			}
		}
		return nil
	})
}
