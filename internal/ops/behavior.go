package ops

import "sync"

// Kernel allocation/ownership behavior registry. The executor
// (internal/exec) recycles a node's output buffer once the last of its
// consumers has run, and a kernel's ctx.Alloc may hand out such a buffer —
// in the root frame, in every loop iteration, and for shapes known only at
// run time — but only when the kernels involved follow two disciplines the
// registry records:
//
//   - plansOutputs: the kernel allocates every tensor output through
//     ctx.Alloc, fully overwrites the returned buffer, and never aliases an
//     input into an output. Outputs of such ops may be recycled.
//
//   - noRetain: the kernel neither keeps a reference to any input tensor
//     beyond the call (no stashing in variables, rendezvous, queues or
//     stacks) nor forwards an input as an output, not even on a shortcut
//     (Cast to its own dtype clones). Only outputs whose every consumer is
//     noRetain are recycled, since a recycled buffer is rewritten while the
//     step, or a later one, is still running.
//
// plansOutputs implies noRetain. Ops absent from the registry are treated
// conservatively: their outputs are heap-allocated per step and their
// inputs keep producers' buffers from being recycled (e.g. Identity aliases,
// Assign forwards the value it copied, Send parks tensors in the
// rendezvous).

var (
	behaviorMu   sync.RWMutex
	plansOutputs = map[string]bool{}
	noRetain     = map[string]bool{}
)

// MarkPlansOutputs records that the named ops' kernels allocate outputs via
// ctx.Alloc, fully overwrite them, and never alias or retain inputs.
func MarkPlansOutputs(ops ...string) {
	behaviorMu.Lock()
	defer behaviorMu.Unlock()
	for _, op := range ops {
		plansOutputs[op] = true
		noRetain[op] = true
	}
}

// MarkNoRetain records that the named ops' kernels neither retain nor
// forward their input tensors (but may heap-allocate outputs).
func MarkNoRetain(ops ...string) {
	behaviorMu.Lock()
	defer behaviorMu.Unlock()
	for _, op := range ops {
		noRetain[op] = true
	}
}

// PlansOutputs reports whether the op's kernel requests outputs through
// ctx.Alloc and fully overwrites them.
func PlansOutputs(op string) bool {
	behaviorMu.RLock()
	defer behaviorMu.RUnlock()
	return plansOutputs[op]
}

// NoRetain reports whether the op's kernel is safe as a consumer of a
// recycled buffer.
func NoRetain(op string) bool {
	behaviorMu.RLock()
	defer behaviorMu.RUnlock()
	return noRetain[op]
}

func init() {
	// Converted to ctx.Alloc in math.go / nn.go / fused.go.
	MarkPlansOutputs(
		"Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "SquaredDifference",
		"Neg", "Abs", "Exp", "Log", "Sqrt", "Rsqrt", "Square", "Tanh", "Sigmoid",
		"Relu", "Sign", "Floor", "Ceil", "Reciprocal",
		"ReluGrad", "SigmoidGrad", "TanhGrad",
		"AddN", "MatMul", "FusedMatMul", "BiasAdd",
	)
	// Allocate fresh outputs but never alias or retain inputs; safe
	// consumers of recycled buffers.
	MarkNoRetain(
		"BatchMatMul", "BiasAddGrad", "Sum", "Mean", "Max", "Min", "Prod",
		"ArgMax", "L2Loss", "Softmax", "LogSoftmax",
		"SoftmaxCrossEntropyWithLogits", "SparseSoftmaxCrossEntropyWithLogits",
		"Equal", "NotEqual", "Less", "LessEqual", "Greater", "GreaterEqual",
		"LogicalAnd", "LogicalOr", "LogicalNot", "Select", "InTopK",
		"Cast", "ZerosLike", "OnesLike", "Shape", "Size", "Rank",
		"Conv2D", "Conv2DBackpropInput", "Conv2DBackpropFilter",
		"MaxPool", "MaxPoolGrad", "AvgPool",
		// The variable keeps the new tensor they compute, not the delta (nor
		// ApplyMomentum's gradient, rate or decay).
		"AssignAdd", "AssignSub", "ApplyMomentum",
	)
}
