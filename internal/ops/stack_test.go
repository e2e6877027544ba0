package ops_test

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// fakeStackResources implements only the stack half of the resource
// surface, recording drops.
type fakeStackResources struct {
	ops.Resources // nil embedding: variable/queue/rng methods unused here
	stacks        map[ops.StackKey]*ops.Stack
	dropped       []ops.StackKey
}

func newFakeStackResources() *fakeStackResources {
	return &fakeStackResources{stacks: map[ops.StackKey]*ops.Stack{}}
}

func (f *fakeStackResources) FindOrCreateStack(key ops.StackKey) *ops.Stack {
	if s, ok := f.stacks[key]; ok {
		return s
	}
	s := &ops.Stack{}
	f.stacks[key] = s
	return s
}

func (f *fakeStackResources) DropStack(key ops.StackKey) {
	delete(f.stacks, key)
	f.dropped = append(f.dropped, key)
}

func (f *fakeStackResources) DropStepStacks(stepID int64) {
	for key := range f.stacks {
		if key.StepID == stepID {
			f.DropStack(key)
		}
	}
}

// stackNodes builds one StackPush and one StackPop wired the way the
// gradient builder emits them, and returns their compiled kernels' contexts.
func stackContexts(t *testing.T, res ops.Resources, stepID int64) (push, pop *ops.OpContext) {
	t.Helper()
	g := graph.New()
	val, err := g.AddNode("Placeholder", nil, graph.NodeArgs{
		Name: "v", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := g.AddNode("Const", nil, graph.NodeArgs{
		Name: "tok", Attrs: map[string]any{"value": tensor.ScalarInt(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	pushN, err := g.AddNode("StackPush", []graph.Endpoint{val.Out(0), tok.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"stack": "s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	popN, err := g.AddNode("StackPop", []graph.Endpoint{tok.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"stack": "s", "dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	if err != nil {
		t.Fatal(err)
	}
	push = &ops.OpContext{Node: pushN, Inputs: make([]ops.Value, 2), Outputs: make([]ops.Value, 1), Resources: res, StepID: stepID}
	pop = &ops.OpContext{Node: popN, Inputs: make([]ops.Value, 1), Outputs: make([]ops.Value, 2), Resources: res, StepID: stepID}
	return push, pop
}

func TestStackKernelsLIFOAndDrop(t *testing.T) {
	res := newFakeStackResources()
	pushCtx, popCtx := stackContexts(t, res, 7)
	pushK, err := ops.LookupKernel("StackPush", "CPU")
	if err != nil {
		t.Fatal(err)
	}
	popK, err := ops.LookupKernel("StackPop", "CPU")
	if err != nil {
		t.Fatal(err)
	}
	tok := ops.Value{Tensor: tensor.ScalarInt(0)}
	for i := 1; i <= 3; i++ {
		pushCtx.Inputs[0] = ops.Value{Tensor: tensor.Scalar(float32(i))}
		pushCtx.Inputs[1] = tok
		if err := pushK(pushCtx); err != nil {
			t.Fatal(err)
		}
		if depth := pushCtx.Outputs[0].Tensor.IntAt(0); depth != i {
			t.Errorf("push %d: depth token = %d", i, depth)
		}
		tok = pushCtx.Outputs[0]
	}
	if len(res.stacks) != 1 {
		t.Fatalf("expected one live stack, have %v", res.stacks)
	}
	// Pops return values most-recent-first and drop the stack when drained.
	for i := 3; i >= 1; i-- {
		popCtx.Inputs[0] = tok
		if err := popK(popCtx); err != nil {
			t.Fatal(err)
		}
		if got := popCtx.Outputs[0].Tensor.FloatAt(0); got != float64(i) {
			t.Errorf("pop: got %v, want %d (LIFO)", got, i)
		}
		tok = popCtx.Outputs[1]
	}
	if len(res.stacks) != 0 || len(res.dropped) != 1 {
		t.Errorf("drained stack not dropped: live %v, dropped %v", res.stacks, res.dropped)
	}
	// One more pop underflows with a clear error.
	popCtx.Inputs[0] = tok
	if err := popK(popCtx); err == nil || !strings.Contains(err.Error(), "empty stack") {
		t.Errorf("underflow error = %v", err)
	}
}

// TestStackKeysAreStepScoped: the same graph nodes on different StepIDs
// must address different stacks, so concurrent steps never interleave.
func TestStackKeysAreStepScoped(t *testing.T) {
	res := newFakeStackResources()
	pushK, _ := ops.LookupKernel("StackPush", "CPU")
	popK, _ := ops.LookupKernel("StackPop", "CPU")
	pushA, popA := stackContexts(t, res, 1)
	pushB, popB := stackContexts(t, res, 2)
	tok := ops.Value{Tensor: tensor.ScalarInt(0)}
	pushA.Inputs[0], pushA.Inputs[1] = ops.Value{Tensor: tensor.Scalar(float32(10))}, tok
	pushB.Inputs[0], pushB.Inputs[1] = ops.Value{Tensor: tensor.Scalar(float32(20))}, tok
	if err := pushK(pushA); err != nil {
		t.Fatal(err)
	}
	if err := pushK(pushB); err != nil {
		t.Fatal(err)
	}
	if len(res.stacks) != 2 {
		t.Fatalf("step-scoped stacks should be distinct, have %v", res.stacks)
	}
	popB.Inputs[0] = tok
	if err := popK(popB); err != nil {
		t.Fatal(err)
	}
	if got := popB.Outputs[0].Tensor.FloatAt(0); got != 20 {
		t.Errorf("step 2 popped %v, want 20", got)
	}
	popA.Inputs[0] = tok
	if err := popK(popA); err != nil {
		t.Fatal(err)
	}
	if got := popA.Outputs[0].Tensor.FloatAt(0); got != 10 {
		t.Errorf("step 1 popped %v, want 10", got)
	}
}

// TestValueCountFitsItsPadding: the executor's count handle sits in the
// padding after Dead, so a Value, which every edge of every step copies, is
// no larger than it would be without it.
func TestValueCountFitsItsPadding(t *testing.T) {
	without := unsafe.Sizeof(struct {
		t    *tensor.Tensor
		r    *ops.Resource
		dead bool
	}{})
	if n := unsafe.Sizeof(ops.Value{}); n != without {
		t.Errorf("ops.Value is %d bytes, %d without its count", n, without)
	}
}

// TestLoopKernelsAllocateNothingPerExecution pins the kernels a loop runs
// once per iteration whatever its body does: Merge's value_index and the
// stack tokens come from shared immutable scalars, a scalar loop predicate
// allocates nothing but through ctx.Alloc (which the executor serves from its
// free list, here one buffer handed out again), and the step-scoped stack key
// is a struct, not a formatted string.
func TestLoopKernelsAllocateNothingPerExecution(t *testing.T) {
	g := graph.New()
	in, err := g.AddNode("Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": tensor.Scalar(1)}})
	if err != nil {
		t.Fatal(err)
	}
	run := func(op string, inputs []graph.Endpoint, values []ops.Value, nOut int) float64 {
		t.Helper()
		n, err := g.AddNode(op, inputs, graph.NodeArgs{})
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := ops.LookupKernel(op, "CPU")
		if err != nil {
			t.Fatal(err)
		}
		recycled := tensor.ScalarBool(false)
		alloc := func(tensor.DType, tensor.Shape) *tensor.Tensor { return recycled }
		ctx := &ops.OpContext{Node: n, Inputs: values, Outputs: make([]ops.Value, nOut), Alloc: alloc}
		return testing.AllocsPerRun(100, func() {
			if err := kernel(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two := ops.Value{Tensor: tensor.Scalar(1)}, ops.Value{Tensor: tensor.Scalar(2)}
	if n := run("Merge", []graph.Endpoint{in.Out(0), in.Out(0)}, []ops.Value{{Dead: true}, one}, 2); n != 0 {
		t.Errorf("Merge allocates %v per execution", n)
	}
	if n := run("Less", []graph.Endpoint{in.Out(0), in.Out(0)}, []ops.Value{one, two}, 1); n != 0 {
		t.Errorf("scalar Less allocates %v per execution", n)
	}

	res := newFakeStackResources()
	push, pop := stackContexts(t, res, 7)
	pushK, _ := ops.LookupKernel("StackPush", "CPU")
	popK, _ := ops.LookupKernel("StackPop", "CPU")
	push.Inputs[0], push.Inputs[1], pop.Inputs[0] = one, one, one
	const depth = 8
	n := testing.AllocsPerRun(100, func() {
		for i := 0; i < depth; i++ {
			if err := pushK(push); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < depth; i++ {
			if err := popK(pop); err != nil {
				t.Fatal(err)
			}
		}
	})
	// What is left is per stack, not per push: the Stack, its slice growing
	// to depth, and the fake's bookkeeping.
	if n > depth {
		t.Errorf("%d pushes and pops allocate %v times", depth, n)
	}
}
