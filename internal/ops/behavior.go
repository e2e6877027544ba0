package ops

import "sync"

// Kernel ownership registry. The executor (internal/exec) recycles a node's
// output buffer once the last of its consumers has run, and ctx.Alloc may
// hand such a buffer out again — in the root frame, in every loop iteration,
// and for shapes known only at run time. One mark, NoRetain, says which
// kernels take part. A NoRetain kernel
//
//   - neither keeps a reference to any input tensor beyond the call (no
//     stashing in variables, rendezvous, queues or stacks) nor forwards an
//     input as an output, not even on a shortcut (Cast to its own dtype
//     copies), and
//   - creates every tensor it outputs through ctx.Alloc and writes every
//     element of it.
//
// An output is recycled when its producer is NoRetain and not stateful, it is
// not fetched, and every consumer is NoRetain. The producer condition keeps
// out the tensors a kernel did not allocate: Const's attribute, the input
// Identity passes on. A variable's value is recycled back to its variable
// instead: a Read under the same consumer rule leases it (ctx.Private), and
// its last consumer returns it (Variable.Return), so the variable's next
// update may write into it. The consumer condition keeps out every reader
// that could still hold the buffer when it is rewritten. One exception to
// "through ctx.Alloc" is allowed: a rank-0 output may be a shared immutable
// scalar (a loop predicate is one of two package-level bools), because the
// executor never puts a rank-0 tensor on its free list.
//
// Ops absent from the registry are treated conservatively: their outputs are
// never recycled and their inputs keep producers' buffers from being
// recycled. Stateful NoRetain ops (AssignAdd, ApplyMomentum) write the
// variable's new value into its spare, or allocate it through ctx.Alloc,
// which hands the buffer over for good. Recv is the one stateful op whose
// output is recycled all the same: Rendezvous.RecvInto hands it a tensor
// taken from ctx.Alloc, decoded from another task or copied from a sender on
// this one, so no sender's tensor reaches a free list.

var (
	behaviorMu sync.RWMutex
	noRetain   = map[string]bool{}
)

// MarkNoRetain records that the named ops' kernels neither retain nor
// forward their input tensors and create their outputs through ctx.Alloc.
func MarkNoRetain(ops ...string) {
	behaviorMu.Lock()
	defer behaviorMu.Unlock()
	for _, op := range ops {
		noRetain[op] = true
	}
}

// NoRetain reports whether the op's kernel is marked with MarkNoRetain.
func NoRetain(op string) bool {
	behaviorMu.RLock()
	defer behaviorMu.RUnlock()
	return noRetain[op]
}

func init() {
	MarkNoRetain(
		"Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "SquaredDifference",
		"Neg", "Abs", "Exp", "Log", "Sqrt", "Rsqrt", "Square", "Tanh", "Sigmoid",
		"Relu", "Sign", "Floor", "Ceil", "Reciprocal",
		"ReluGrad", "SigmoidGrad", "TanhGrad",
		"AddN", "MatMul", "FusedMatMul", "BiasAdd", "BatchMatMul", "BiasAddGrad",
		"Sum", "Mean", "Max", "Min", "Prod", "SumGrad", "MeanGrad",
		"ArgMax", "L2Loss", "Softmax", "LogSoftmax",
		"SoftmaxCrossEntropyWithLogits", "SparseSoftmaxCrossEntropyWithLogits",
		"Equal", "NotEqual", "Less", "LessEqual", "Greater", "GreaterEqual",
		"LogicalAnd", "LogicalOr", "LogicalNot", "Select", "InTopK",
		"Cast", "ZerosLike", "OnesLike", "Fill", "Range", "Shape", "Size", "Rank",
		"BroadcastGradientArgs",
		"Conv2D", "Conv2DBackpropInput", "Conv2DBackpropFilter",
		"MaxPool", "MaxPoolGrad", "AvgPool",
		"Transpose", "Concat", "Split", "Slice", "Pack", "Unpack", "Pad", "Tile", "OneHot",
		"Gather", "DynamicPartition", "DynamicStitch", "UnsortedSegmentSum",
		// The variable keeps the new tensor they compute, not the delta (nor
		// ApplyMomentum's gradient, rate or decay).
		"AssignAdd", "AssignSub", "ApplyMomentum",
		"Recv",
	)
}
