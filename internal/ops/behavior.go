package ops

import "sync"

// Kernel allocation/ownership behavior registry. The executor's static
// memory plan (internal/exec) may hand a node's output slot a buffer
// recycled from a dead predecessor, and may recycle that node's own output
// once its consumers finish — but only when the kernels involved follow
// two disciplines the registry records:
//
//   - plansOutputs: the kernel allocates every tensor output through
//     ctx.Alloc, fully overwrites the returned buffer, and never aliases an
//     input into an output. Outputs of such ops are eligible for planned
//     (recycled, step-persistent) buffers.
//
//   - noRetain: the kernel neither keeps a reference to any input tensor
//     beyond the call (no stashing in variables, rendezvous, queues or
//     stacks) nor forwards an input as an output. Only outputs whose every
//     consumer is noRetain may be planned, since a planned buffer is
//     rewritten on a later step.
//
// plansOutputs implies noRetain. Ops absent from the registry are treated
// conservatively: their outputs are heap-allocated per step and their
// inputs pin producers out of the plan (e.g. Identity aliases, Assign
// forwards the value it copied, Send parks tensors in the rendezvous).

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
// planned buffer.
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
	// consumers of planned buffers.
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
