package ops

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerStackOps()
}

// Stack is the LIFO tensor store behind the StackPush/StackPop kernels. The
// gradient builder uses one stack per forward-loop intermediate: the forward
// loop pushes the value once per iteration, and the backward loop pops them
// in reverse iteration order (§4.1: "the TensorFlow runtime includes stack
// data structures … forward computation pushes, backward pops").
type Stack struct {
	mu    sync.Mutex
	items []Value
}

// Push appends a value and returns the new depth.
func (s *Stack) Push(v Value) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, v)
	return len(s.items)
}

// Pop removes and returns the most recently pushed value plus the remaining
// depth; it fails on an empty stack.
func (s *Stack) Pop() (Value, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	if n == 0 {
		return Value{}, 0, fmt.Errorf("ops: pop from empty stack")
	}
	v := s.items[n-1]
	s.items[n-1] = Value{}
	s.items = s.items[:n-1]
	return v, n - 1, nil
}

// StackKey scopes a stack name to one step: concurrent steps of one
// executable each accumulate into their own stacks (§3.2). It is a
// comparable struct, not a formatted string, because the kernels build one
// per push and pop.
type StackKey struct {
	Name   string
	StepID int64
}

// StackResources is the optional extension of Resources that owns stacks.
// Stacks are step-scoped, so the manager drops a stack as soon as the final
// pop drains it; the executor calls DropStepStacks when a step fails between
// pushes and pops, and after every step whose pushes carry counts.
type StackResources interface {
	// FindOrCreateStack returns the keyed stack, creating it on first use.
	FindOrCreateStack(key StackKey) *Stack
	// DropStack removes a drained stack so step-scoped stacks do not
	// accumulate across steps.
	DropStack(key StackKey)
	// DropStepStacks removes every stack belonging to the given step — the
	// failure-path cleanup for steps whose backward loop never drained
	// what the forward loop saved.
	DropStepStacks(stepID int64)
}

func stackKey(ctx *OpContext) (StackKey, error) {
	name := ctx.Node.AttrString("stack", "")
	if name == "" {
		return StackKey{}, fmt.Errorf("ops: %s needs a stack attribute", ctx.Node.Name())
	}
	return StackKey{Name: name, StepID: ctx.StepID}, nil
}

func stackResources(ctx *OpContext) (StackResources, error) {
	sr, ok := ctx.Resources.(StackResources)
	if !ok {
		return nil, fmt.Errorf("ops: %s: resource manager %T does not implement StackResources", ctx.Node.Name(), ctx.Resources)
	}
	return sr, nil
}

// registerStackOps installs StackPush and StackPop. Both thread an int32
// token so the graph carries explicit ordering: the forward loop chains its
// pushes through a token loop variable, the token's Exit feeds the backward
// loop, and the backward pops chain through their own token variable. The
// dependency chain push₀ → … → push_{N-1} → Exit → pop₀ → … → pop_{N-1} is
// therefore visible to pruning and scheduling as ordinary dataflow — no
// hidden resource edges.
func registerStackOps() {
	graph.RegisterOp(&graph.OpDef{
		Type: "StackPush", MinInputs: 2, MaxInputs: 2, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if n.AttrString("stack", "") == "" {
				return nil, fmt.Errorf("StackPush needs a stack attribute")
			}
			if !in[1].DType.IsInteger() {
				return nil, fmt.Errorf("StackPush token must be integer, got %v", in[1].DType)
			}
			return []graph.IOSpec{scalarSpec(tensor.Int32)}, nil
		},
	})
	RegisterKernel("StackPush", "CPU", func(ctx *OpContext) error {
		if _, err := ctx.Input(0); err != nil {
			return err
		}
		key, err := stackKey(ctx)
		if err != nil {
			return err
		}
		sr, err := stackResources(ctx)
		if err != nil {
			return err
		}
		depth := sr.FindOrCreateStack(key).Push(ctx.Inputs[0])
		ctx.SetOutput(0, smallInt(depth))
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "StackPop", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if n.AttrString("stack", "") == "" {
				return nil, fmt.Errorf("StackPop needs a stack attribute")
			}
			dt := n.AttrDType("dtype", tensor.Invalid)
			if dt == tensor.Invalid {
				return nil, fmt.Errorf("StackPop needs a dtype attribute")
			}
			shape, ok := n.AttrShape("shape")
			if !ok {
				shape = tensor.Shape{-1}
			}
			return []graph.IOSpec{
				{DType: dt, Shape: shape.Clone()},
				scalarSpec(tensor.Int32),
			}, nil
		},
	})
	RegisterKernel("StackPop", "CPU", func(ctx *OpContext) error {
		key, err := stackKey(ctx)
		if err != nil {
			return err
		}
		sr, err := stackResources(ctx)
		if err != nil {
			return err
		}
		v, remaining, err := sr.FindOrCreateStack(key).Pop()
		if err != nil {
			return fmt.Errorf("ops: %s: %w", ctx.Node.Name(), err)
		}
		if remaining == 0 {
			sr.DropStack(key)
		}
		if want := ctx.Node.AttrDType("dtype", v.Tensor.DType()); v.Tensor.DType() != want {
			return fmt.Errorf("ops: %s popped %v, expected %v", ctx.Node.Name(), v.Tensor.DType(), want)
		}
		ctx.Outputs[0] = v
		ctx.SetOutput(1, smallInt(remaining))
		return nil
	})
}
