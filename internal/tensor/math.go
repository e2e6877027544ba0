package tensor

import (
	"fmt"
	"math"
)

// BinaryOp identifies a broadcasting element-wise binary operation.
type BinaryOp uint8

// Supported element-wise binary operations.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpMaximum
	OpMinimum
	OpSquaredDifference
)

var binaryOpNames = [...]string{"Add", "Sub", "Mul", "Div", "Pow", "Maximum", "Minimum", "SquaredDifference"}

func (op BinaryOp) String() string { return binaryOpNames[op] }

func (op BinaryOp) apply(a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpPow:
		return math.Pow(a, b)
	case OpMaximum:
		if a > b {
			return a
		}
		return b
	case OpMinimum:
		if a < b {
			return a
		}
		return b
	case OpSquaredDifference:
		d := a - b
		return d * d
	default:
		panic("tensor: unknown binary op")
	}
}

// Binary applies op element-wise with NumPy-style broadcasting. The output
// dtype matches the input dtype; both inputs must share a numeric dtype.
func Binary(op BinaryOp, a, b *Tensor) (*Tensor, error) {
	return BinaryInto(nil, op, a, b)
}

// BinaryInto is Binary writing into dst, which must match the broadcast
// result's dtype and shape and must not alias either input (its prior
// contents are ignored). A nil dst allocates.
func BinaryInto(dst *Tensor, op BinaryOp, a, b *Tensor) (*Tensor, error) {
	if a.dtype != b.dtype {
		return nil, fmt.Errorf("tensor: %v dtype mismatch %v vs %v", op, a.dtype, b.dtype)
	}
	if !a.dtype.IsNumeric() {
		return nil, fmt.Errorf("tensor: %v on non-numeric dtype %v", op, a.dtype)
	}
	outShape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %v: %w", op, err)
	}
	out := dst
	if out == nil {
		out = New(a.dtype, outShape)
	} else if out.dtype != a.dtype || !out.shape.Equal(outShape) {
		return nil, fmt.Errorf("tensor: %v dst must be %v%v, got %v%v", op, a.dtype, outShape, out.dtype, out.shape)
	}
	n := out.NumElements()

	// Fast path: identical shapes and float32 (the dominant case in
	// training graphs) avoids the index arithmetic entirely.
	if a.dtype == Float32 && a.shape.Equal(b.shape) {
		av, bv, ov := a.Float32s(), b.Float32s(), out.Float32s()
		switch op {
		case OpAdd:
			for i := range ov {
				ov[i] = av[i] + bv[i]
			}
			return out, nil
		case OpSub:
			for i := range ov {
				ov[i] = av[i] - bv[i]
			}
			return out, nil
		case OpMul:
			for i := range ov {
				ov[i] = av[i] * bv[i]
			}
			return out, nil
		case OpDiv:
			for i := range ov {
				ov[i] = av[i] / bv[i]
			}
			return out, nil
		}
	}
	// Fast path: float32 with a scalar operand.
	if a.dtype == Float32 && b.shape.IsScalar() {
		av, ov := a.Float32s(), out.Float32s()
		bs := b.Float32s()[0]
		for i := range ov {
			ov[i] = float32(op.apply(float64(av[i]), float64(bs)))
		}
		return out, nil
	}
	if a.dtype == Float32 && a.shape.IsScalar() {
		bv, ov := b.Float32s(), out.Float32s()
		as := a.Float32s()[0]
		for i := range ov {
			ov[i] = float32(op.apply(float64(as), float64(bv[i])))
		}
		return out, nil
	}

	ia := newBroadcastIter(a.shape, outShape)
	ib := newBroadcastIter(b.shape, outShape)
	for i := 0; i < n; i++ {
		out.SetFloat(i, op.apply(a.FloatAt(ia.at(i)), b.FloatAt(ib.at(i))))
	}
	return out, nil
}

// broadcastIter maps flat output indices to flat input indices for a shape
// broadcast into outShape.
type broadcastIter struct {
	identity  bool
	inStride  []int // stride of the input in each output dimension (0 for broadcast dims)
	outStride []int
	rank      int
}

// newBroadcastIter returns the iterator by value so that the common
// identity case (equal shapes) costs the caller no allocation.
func newBroadcastIter(in, out Shape) broadcastIter {
	if in.Equal(out) {
		return broadcastIter{identity: true}
	}
	r := len(out)
	it := broadcastIter{rank: r, inStride: make([]int, r), outStride: out.Strides()}
	inStrides := in.Strides()
	for i := 0; i < r; i++ {
		inDim := i - (r - len(in))
		if inDim >= 0 && in[inDim] != 1 {
			it.inStride[i] = inStrides[inDim]
		}
	}
	return it
}

func (it *broadcastIter) at(flat int) int {
	if it.identity {
		return flat
	}
	off := 0
	rem := flat
	for i := 0; i < it.rank; i++ {
		idx := rem / it.outStride[i]
		rem %= it.outStride[i]
		off += idx * it.inStride[i]
	}
	return off
}

// CompareOp identifies an element-wise comparison producing a Bool tensor.
type CompareOp uint8

// Supported comparisons.
const (
	CmpEqual CompareOp = iota
	CmpNotEqual
	CmpLess
	CmpLessEqual
	CmpGreater
	CmpGreaterEqual
)

var compareOpNames = [...]string{"Equal", "NotEqual", "Less", "LessEqual", "Greater", "GreaterEqual"}

func (op CompareOp) String() string { return compareOpNames[op] }

// Apply evaluates the comparison on one pair of elements.
func (op CompareOp) Apply(a, b float64) bool {
	switch op {
	case CmpEqual:
		return a == b
	case CmpNotEqual:
		return a != b
	case CmpLess:
		return a < b
	case CmpLessEqual:
		return a <= b
	case CmpGreater:
		return a > b
	case CmpGreaterEqual:
		return a >= b
	default:
		panic("tensor: unknown compare op")
	}
}

// Compare applies a broadcasting element-wise comparison, producing Bool.
func Compare(op CompareOp, a, b *Tensor) (*Tensor, error) {
	if a.dtype != b.dtype || !a.dtype.IsNumeric() {
		return nil, fmt.Errorf("tensor: %v needs matching numeric dtypes, got %v and %v", op, a.dtype, b.dtype)
	}
	outShape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %v: %w", op, err)
	}
	out := New(Bool, outShape)
	dst := out.Bools()
	ia := newBroadcastIter(a.shape, outShape)
	ib := newBroadcastIter(b.shape, outShape)
	for i := range dst {
		dst[i] = op.Apply(a.FloatAt(ia.at(i)), b.FloatAt(ib.at(i)))
	}
	return out, nil
}

// Logical applies a broadcasting boolean binary operation ("and", "or",
// "xor") to two Bool tensors.
func Logical(op string, a, b *Tensor) (*Tensor, error) {
	if a.dtype != Bool || b.dtype != Bool {
		return nil, fmt.Errorf("tensor: logical %s needs bool inputs", op)
	}
	outShape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, err
	}
	out := New(Bool, outShape)
	dst := out.Bools()
	av, bv := a.Bools(), b.Bools()
	ia := newBroadcastIter(a.shape, outShape)
	ib := newBroadcastIter(b.shape, outShape)
	for i := range dst {
		x, y := av[ia.at(i)], bv[ib.at(i)]
		switch op {
		case "and":
			dst[i] = x && y
		case "or":
			dst[i] = x || y
		case "xor":
			dst[i] = x != y
		default:
			return nil, fmt.Errorf("tensor: unknown logical op %q", op)
		}
	}
	return out, nil
}

// UnaryOp identifies an element-wise unary operation.
type UnaryOp uint8

// Supported element-wise unary operations.
const (
	OpNeg UnaryOp = iota
	OpAbs
	OpExp
	OpLog
	OpSqrt
	OpRsqrt
	OpSquare
	OpTanh
	OpSigmoid
	OpRelu
	OpSign
	OpFloor
	OpCeil
	OpReciprocal
	OpReluGradGate // 1 where x > 0 else 0 (helper for Relu gradient)
)

var unaryOpNames = [...]string{
	"Neg", "Abs", "Exp", "Log", "Sqrt", "Rsqrt", "Square", "Tanh", "Sigmoid",
	"Relu", "Sign", "Floor", "Ceil", "Reciprocal", "ReluGradGate",
}

func (op UnaryOp) String() string { return unaryOpNames[op] }

func (op UnaryOp) apply(x float64) float64 {
	switch op {
	case OpNeg:
		return -x
	case OpAbs:
		return math.Abs(x)
	case OpExp:
		return math.Exp(x)
	case OpLog:
		return math.Log(x)
	case OpSqrt:
		return math.Sqrt(x)
	case OpRsqrt:
		return 1 / math.Sqrt(x)
	case OpSquare:
		return x * x
	case OpTanh:
		return math.Tanh(x)
	case OpSigmoid:
		return 1 / (1 + math.Exp(-x))
	case OpRelu:
		if x > 0 {
			return x
		}
		return 0
	case OpSign:
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	case OpFloor:
		return math.Floor(x)
	case OpCeil:
		return math.Ceil(x)
	case OpReciprocal:
		return 1 / x
	case OpReluGradGate:
		if x > 0 {
			return 1
		}
		return 0
	default:
		panic("tensor: unknown unary op")
	}
}

// Unary applies op element-wise.
func Unary(op UnaryOp, a *Tensor) (*Tensor, error) {
	return UnaryInto(nil, op, a)
}

// UnaryInto is Unary writing into dst, which must match a's dtype and shape
// and must not alias a (its prior contents are ignored). A nil dst
// allocates.
func UnaryInto(dst *Tensor, op UnaryOp, a *Tensor) (*Tensor, error) {
	if !a.dtype.IsNumeric() {
		return nil, fmt.Errorf("tensor: %v on non-numeric dtype %v", op, a.dtype)
	}
	out := dst
	if out == nil {
		out = New(a.dtype, a.shape)
	} else if out.dtype != a.dtype || !out.shape.Equal(a.shape) {
		return nil, fmt.Errorf("tensor: %v dst must be %v%v, got %v%v", op, a.dtype, a.shape, out.dtype, out.shape)
	}
	n := a.NumElements()
	if a.dtype == Float32 {
		src, dv := a.Float32s(), out.Float32s()
		switch op {
		case OpNeg:
			for i := range dv {
				dv[i] = -src[i]
			}
			return out, nil
		case OpSquare:
			for i := range dv {
				dv[i] = src[i] * src[i]
			}
			return out, nil
		case OpRelu:
			// Write both branches: dst may be a recycled, dirty buffer.
			for i := range dv {
				if src[i] > 0 {
					dv[i] = src[i]
				} else {
					dv[i] = 0
				}
			}
			return out, nil
		}
	}
	for i := 0; i < n; i++ {
		out.SetFloat(i, op.apply(a.FloatAt(i)))
	}
	return out, nil
}

// ReluGradInto computes grad · 1[features > 0] — the ReLU backprop — in a
// single pass into dst (nil allocates; must not alias the inputs).
func ReluGradInto(dst, grad, features *Tensor) (*Tensor, error) {
	if grad.dtype != features.dtype || !grad.dtype.IsNumeric() || !grad.shape.Equal(features.shape) {
		return nil, fmt.Errorf("tensor: ReluGrad needs matching numeric tensors, got %v%v and %v%v",
			grad.dtype, grad.shape, features.dtype, features.shape)
	}
	out := dst
	if out == nil {
		out = New(grad.dtype, grad.shape)
	} else if out.dtype != grad.dtype || !out.shape.Equal(grad.shape) {
		return nil, fmt.Errorf("tensor: ReluGrad dst must be %v%v, got %v%v", grad.dtype, grad.shape, out.dtype, out.shape)
	}
	if grad.dtype == Float32 {
		gv, fv, ov := grad.Float32s(), features.Float32s(), out.Float32s()
		for i := range ov {
			if fv[i] > 0 {
				ov[i] = gv[i]
			} else {
				ov[i] = 0
			}
		}
		return out, nil
	}
	n := grad.NumElements()
	for i := 0; i < n; i++ {
		if features.FloatAt(i) > 0 {
			out.SetFloat(i, grad.FloatAt(i))
		} else {
			out.SetFloat(i, 0)
		}
	}
	return out, nil
}

// Select returns elements of a where cond is true and of b otherwise, with
// cond broadcast against a/b.
func Select(cond, a, b *Tensor) (*Tensor, error) {
	if cond.dtype != Bool {
		return nil, fmt.Errorf("tensor: Select condition must be bool, got %v", cond.dtype)
	}
	if a.dtype != b.dtype || !a.shape.Equal(b.shape) {
		return nil, fmt.Errorf("tensor: Select branches must match: %v%v vs %v%v", a.dtype, a.shape, b.dtype, b.shape)
	}
	outShape, err := BroadcastShapes(cond.shape, a.shape)
	if err != nil {
		return nil, err
	}
	if !outShape.Equal(a.shape) {
		return nil, fmt.Errorf("tensor: Select condition shape %v not broadcastable to %v", cond.shape, a.shape)
	}
	out := New(a.dtype, a.shape)
	ic := newBroadcastIter(cond.shape, outShape)
	cv := cond.Bools()
	n := out.NumElements()
	for i := 0; i < n; i++ {
		if cv[ic.at(i)] {
			out.SetFloat(i, a.FloatAt(i))
		} else {
			out.SetFloat(i, b.FloatAt(i))
		}
	}
	return out, nil
}

// AddN sums a non-empty list of same-shaped numeric tensors.
func AddN(ts []*Tensor) (*Tensor, error) {
	return AddNInto(nil, ts)
}

// AddNInto is AddN writing into dst, which must match the addends' dtype
// and shape and must not alias any of them (its prior contents are
// ignored). A nil dst allocates.
func AddNInto(dst *Tensor, ts []*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: AddN of zero tensors")
	}
	first := ts[0]
	for _, t := range ts[1:] {
		if t.dtype != first.dtype || !t.shape.Equal(first.shape) {
			return nil, fmt.Errorf("tensor: AddN mismatch %v%v vs %v%v", first.dtype, first.shape, t.dtype, t.shape)
		}
	}
	out := dst
	if out == nil {
		out = first.Clone()
	} else {
		if out.dtype != first.dtype || !out.shape.Equal(first.shape) {
			return nil, fmt.Errorf("tensor: AddN dst must be %v%v, got %v%v", first.dtype, first.shape, out.dtype, out.shape)
		}
		out.CopyFrom(first)
	}
	for _, t := range ts[1:] {
		if out.dtype == Float32 {
			ov, tv := out.Float32s(), t.Float32s()
			for i := range ov {
				ov[i] += tv[i]
			}
			continue
		}
		n := out.NumElements()
		for i := 0; i < n; i++ {
			out.SetFloat(i, out.FloatAt(i)+t.FloatAt(i))
		}
	}
	return out, nil
}
