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

// Binary applies op element-wise with NumPy-style broadcasting, into a
// buffer from alloc. The output dtype matches the input dtype; both inputs
// must share a numeric dtype.
func Binary(alloc Alloc, op BinaryOp, a, b *Tensor) (*Tensor, error) {
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
	out := alloc(a.dtype, outShape)
	// Floats take the typed loop once per run: what a training graph runs
	// (same-shape sums, a scale by a scalar) is one run, a row or column
	// broadcast one per row. Integers convert through float64 element by
	// element.
	eachRun(outShape, a.shape, b.shape, func(at, n, pa, pb, ma, mb int) {
		switch a.dtype {
		case Float32:
			binaryRun(op, out.Float32s(), a.Float32s(), b.Float32s(), at, n, pa, pb, ma, mb)
		case Float64:
			binaryRun(op, out.Float64s(), a.Float64s(), b.Float64s(), at, n, pa, pb, ma, mb)
		default:
			for i := 0; i < n; i++ {
				out.SetFloat(at+i, op.apply(a.FloatAt(pa+i&ma), b.FloatAt(pb+i&mb)))
			}
		}
	})
	return out, nil
}

// binaryRun is binaryLoop over one run of eachRun: an operand that repeats
// is handed over as its one element.
func binaryRun[T float](op BinaryOp, out, a, b []T, at, n, pa, pb, ma, mb int) {
	binaryLoop(op, out[at:at+n], a[pa:pa+1+(n-1)&ma], b[pb:pb+1+(n-1)&mb])
}

// float is the element types the typed loops cover.
type float interface{ float32 | float64 }

// binaryLoop applies op in T's own arithmetic, with the result op.apply
// gives on float64 rounded to T: for + − × ÷ a float32 operation is the
// float64 one rounded once (53 ≥ 2·24+2 bits), Maximum and Minimum return an
// operand, and SquaredDifference and Pow, which round twice, stay widened.
// An operand shorter than out is a single element read at every index.
//
// A product is taken in float64 and rounded once: the product of two float32
// values is exact there, so that is MULSS's result to the bit, and unlike
// MULSS (~40 ns an element on a denormal operand, a microcode assist) the
// conversions and MULSD cost the same on every input. A scalar operand is
// converted once, outside the loop.
func binaryLoop[T float](op BinaryOp, out, a, b []T) {
	ma, mb := stepMask(len(a), len(out)), stepMask(len(b), len(out))
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = a[i&ma] + b[i&mb]
		}
	case OpSub:
		for i := range out {
			out[i] = a[i&ma] - b[i&mb]
		}
	case OpMul:
		switch {
		case ma == 0:
			x := float64(a[0])
			for i, y := range b[:len(out)] {
				out[i] = T(x * float64(y))
			}
		case mb == 0:
			y := float64(b[0])
			for i, x := range a[:len(out)] {
				out[i] = T(float64(x) * y)
			}
		default:
			for i := range out {
				out[i] = T(float64(a[i]) * float64(b[i]))
			}
		}
	case OpDiv:
		for i := range out {
			out[i] = a[i&ma] / b[i&mb]
		}
	case OpMaximum:
		for i := range out {
			if x, y := a[i&ma], b[i&mb]; x > y {
				out[i] = x
			} else {
				out[i] = y
			}
		}
	case OpMinimum:
		for i := range out {
			if x, y := a[i&ma], b[i&mb]; x < y {
				out[i] = x
			} else {
				out[i] = y
			}
		}
	case OpSquaredDifference:
		for i := range out {
			d := float64(a[i&ma]) - float64(b[i&mb])
			out[i] = T(d * d)
		}
	default:
		for i := range out {
			out[i] = T(op.apply(float64(a[i&ma]), float64(b[i&mb])))
		}
	}
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
func Compare(alloc Alloc, op CompareOp, a, b *Tensor) (*Tensor, error) {
	if a.dtype != b.dtype || !a.dtype.IsNumeric() {
		return nil, fmt.Errorf("tensor: %v needs matching numeric dtypes, got %v and %v", op, a.dtype, b.dtype)
	}
	outShape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, fmt.Errorf("tensor: %v: %w", op, err)
	}
	out := alloc(Bool, outShape)
	dst := out.Bools()
	eachRun(outShape, a.shape, b.shape, func(at, n, pa, pb, ma, mb int) {
		for i := 0; i < n; i++ {
			dst[at+i] = op.Apply(a.FloatAt(pa+i&ma), b.FloatAt(pb+i&mb))
		}
	})
	return out, nil
}

// Logical applies a broadcasting boolean binary operation ("and", "or",
// "xor") to two Bool tensors.
func Logical(alloc Alloc, op string, a, b *Tensor) (*Tensor, error) {
	if a.dtype != Bool || b.dtype != Bool {
		return nil, fmt.Errorf("tensor: logical %s needs bool inputs", op)
	}
	outShape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		return nil, err
	}
	var f func(x, y bool) bool
	switch op {
	case "and":
		f = func(x, y bool) bool { return x && y }
	case "or":
		f = func(x, y bool) bool { return x || y }
	case "xor":
		f = func(x, y bool) bool { return x != y }
	default:
		return nil, fmt.Errorf("tensor: unknown logical op %q", op)
	}
	out := alloc(Bool, outShape)
	dst, av, bv := out.Bools(), a.Bools(), b.Bools()
	eachRun(outShape, a.shape, b.shape, func(at, n, pa, pb, ma, mb int) {
		for i := 0; i < n; i++ {
			dst[at+i] = f(av[pa+i&ma], bv[pb+i&mb])
		}
	})
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

// Unary applies op element-wise, into a buffer from alloc.
func Unary(alloc Alloc, op UnaryOp, a *Tensor) (*Tensor, error) {
	if !a.dtype.IsNumeric() {
		return nil, fmt.Errorf("tensor: %v on non-numeric dtype %v", op, a.dtype)
	}
	out := alloc(a.dtype, a.shape)
	switch a.dtype {
	case Float32:
		src, dv := a.Float32s(), out.Float32s()
		switch op {
		case OpRelu:
			for i, x := range src {
				dv[i] = math.Float32frombits(math.Float32bits(x) & maskIf(x > 0))
			}
		case OpTanh:
			tanhF32(dv, src)
		default:
			unaryLoop(op, dv, src)
		}
		return out, nil
	case Float64:
		unaryLoop(op, out.Float64s(), a.Float64s())
		return out, nil
	}
	n := a.NumElements()
	for i := 0; i < n; i++ {
		out.SetFloat(i, op.apply(a.FloatAt(i)))
	}
	return out, nil
}

// unaryLoop applies op in T's own arithmetic where that gives op.apply's
// float64 result rounded to T (exact operations, and 1/x and √x by the
// single-rounding argument of binaryLoop), and every other op as that
// rounding itself.
func unaryLoop[T float](op UnaryOp, out, a []T) {
	out = out[:len(a)]
	switch op {
	case OpNeg:
		for i, x := range a {
			out[i] = -x
		}
	case OpAbs:
		for i, x := range a {
			out[i] = T(math.Abs(float64(x)))
		}
	case OpSqrt:
		for i, x := range a {
			out[i] = T(math.Sqrt(float64(x)))
		}
	case OpSquare:
		for i, x := range a {
			y := float64(x) // as binaryLoop's products
			out[i] = T(y * y)
		}
	case OpReciprocal:
		for i, x := range a {
			out[i] = 1 / x
		}
	default:
		for i, x := range a {
			out[i] = T(op.apply(float64(x)))
		}
	}
}

// tanhF32 is Unary's float32 Tanh: tanhLoop unless the init in
// tanh_amd64.go installed the AVX2 kernel, which gives the same bits.
var tanhF32 = tanhLoop

func tanhLoop(out, a []float32) {
	for i, x := range a {
		out[i] = float32(math.Tanh(float64(x)))
	}
}

// maskIf is all ones when keep holds and zero otherwise. ANDing it into a
// float's bits selects between the value and +0 without a branch: the sign
// of an activation is data, and a mispredicted `if x > 0` costs more than
// the arithmetic around it.
func maskIf(keep bool) uint32 {
	var m uint32
	if keep {
		m = 1
	}
	return -m
}

// ReluGrad computes grad · 1[features > 0] — the ReLU backprop — in a single
// pass into a buffer from alloc.
func ReluGrad(alloc Alloc, grad, features *Tensor) (*Tensor, error) {
	if grad.dtype != features.dtype || !grad.dtype.IsNumeric() || !grad.shape.Equal(features.shape) {
		return nil, fmt.Errorf("tensor: ReluGrad needs matching numeric tensors, got %v%v and %v%v",
			grad.dtype, grad.shape, features.dtype, features.shape)
	}
	out := alloc(grad.dtype, grad.shape)
	if grad.dtype == Float32 {
		gv, fv, ov := grad.Float32s(), features.Float32s(), out.Float32s()
		for i := range ov {
			ov[i] = math.Float32frombits(math.Float32bits(gv[i]) & maskIf(fv[i] > 0))
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
func Select(alloc Alloc, cond, a, b *Tensor) (*Tensor, error) {
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
	out := alloc(a.dtype, a.shape)
	cv := cond.Bools()
	eachRun(outShape, cond.shape, outShape, func(at, n, pc, _, mc, _ int) {
		for i := 0; i < n; i++ {
			if cv[pc+i&mc] {
				out.SetFloat(at+i, a.FloatAt(at+i))
			} else {
				out.SetFloat(at+i, b.FloatAt(at+i))
			}
		}
	})
	return out, nil
}

// AddN sums a non-empty list of same-shaped numeric tensors into a buffer
// from alloc.
func AddN(alloc Alloc, ts []*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: AddN of zero tensors")
	}
	first := ts[0]
	for _, t := range ts[1:] {
		if t.dtype != first.dtype || !t.shape.Equal(first.shape) {
			return nil, fmt.Errorf("tensor: AddN mismatch %v%v vs %v%v", first.dtype, first.shape, t.dtype, t.shape)
		}
	}
	out := alloc(first.dtype, first.shape)
	out.CopyFrom(first)
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
