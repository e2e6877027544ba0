package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Tensor is a dense n-dimensional array with elements of a single primitive
// type, stored in row-major order. Tensors are the only values that flow
// along dataflow edges (§3.1). The zero Tensor is invalid; use New or one of
// the From* constructors.
//
// A Tensor's backing buffer may be shared between tensors (e.g. Reshape
// returns a view); kernels that mutate a buffer in place must own it. The
// executor treats tensors as immutable once produced, a Variable's value
// included: the state ops that write in place do so under the variable lock
// and only to a copy nobody else has been given.
type Tensor struct {
	dtype DType
	shape Shape
	buf   any
}

// New allocates a zero-filled tensor. It panics if the shape is not fully
// defined or the dtype is invalid: allocation sits beneath every kernel, and
// an invalid request is always a programming error in the caller.
func New(dt DType, shape Shape) *Tensor {
	n := shape.NumElements()
	if n < 0 {
		panic(fmt.Sprintf("tensor: cannot allocate shape %v", shape))
	}
	var buf any
	switch dt {
	case Bool:
		buf = make([]bool, n)
	case Int32:
		buf = make([]int32, n)
	case Int64:
		buf = make([]int64, n)
	case Float32:
		buf = make([]float32, n)
	case Float64:
		buf = make([]float64, n)
	case String:
		buf = make([]string, n)
	default:
		panic(fmt.Sprintf("tensor: cannot allocate dtype %v", dt))
	}
	return &Tensor{dtype: dt, shape: shape.Clone(), buf: buf}
}

// Alloc hands a tensor function the buffer for an output of the given dtype
// and shape. What the buffer holds is arbitrary, so every function that takes
// one writes each element of what it returns. New is the heap allocator; the
// executor's serves buffers whose last reader has finished.
type Alloc func(DType, Shape) *Tensor

// zero clears t's buffer, for the functions that accumulate into their output
// or write only some of its elements.
func (t *Tensor) zero() {
	switch buf := t.buf.(type) {
	case []bool:
		clear(buf)
	case []int32:
		clear(buf)
	case []int64:
		clear(buf)
	case []float32:
		clear(buf)
	case []float64:
		clear(buf)
	case []string:
		clear(buf)
	}
}

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return t.shape.NumElements() }

// ByteSize returns an estimate of the tensor's payload size, used by
// transports and cost models.
func (t *Tensor) ByteSize() int { return t.NumElements() * t.dtype.Size() }

// Bools returns the backing buffer of a Bool tensor.
func (t *Tensor) Bools() []bool { return t.buf.([]bool) }

// Int32s returns the backing buffer of an Int32 tensor.
func (t *Tensor) Int32s() []int32 { return t.buf.([]int32) }

// Int64s returns the backing buffer of an Int64 tensor.
func (t *Tensor) Int64s() []int64 { return t.buf.([]int64) }

// Float32s returns the backing buffer of a Float32 tensor.
func (t *Tensor) Float32s() []float32 { return t.buf.([]float32) }

// Float64s returns the backing buffer of a Float64 tensor.
func (t *Tensor) Float64s() []float64 { return t.buf.([]float64) }

// Strings returns the backing buffer of a String tensor.
func (t *Tensor) Strings() []string { return t.buf.([]string) }

// FromFloat32s wraps data in a tensor of the given shape. The slice is
// retained, not copied.
func FromFloat32s(shape Shape, data []float32) *Tensor {
	checkLen(shape, len(data))
	return &Tensor{dtype: Float32, shape: shape.Clone(), buf: data}
}

// FromFloat64s wraps data in a tensor of the given shape.
func FromFloat64s(shape Shape, data []float64) *Tensor {
	checkLen(shape, len(data))
	return &Tensor{dtype: Float64, shape: shape.Clone(), buf: data}
}

// FromInt32s wraps data in a tensor of the given shape.
func FromInt32s(shape Shape, data []int32) *Tensor {
	checkLen(shape, len(data))
	return &Tensor{dtype: Int32, shape: shape.Clone(), buf: data}
}

// FromInt64s wraps data in a tensor of the given shape.
func FromInt64s(shape Shape, data []int64) *Tensor {
	checkLen(shape, len(data))
	return &Tensor{dtype: Int64, shape: shape.Clone(), buf: data}
}

// FromBools wraps data in a tensor of the given shape.
func FromBools(shape Shape, data []bool) *Tensor {
	checkLen(shape, len(data))
	return &Tensor{dtype: Bool, shape: shape.Clone(), buf: data}
}

// FromStrings wraps data in a tensor of the given shape.
func FromStrings(shape Shape, data []string) *Tensor {
	checkLen(shape, len(data))
	return &Tensor{dtype: String, shape: shape.Clone(), buf: data}
}

func checkLen(shape Shape, n int) {
	if shape.NumElements() != n {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, shape.NumElements(), n))
	}
}

// Scalar returns a rank-0 Float32 tensor holding v.
func Scalar(v float32) *Tensor { return FromFloat32s(ScalarShape(), []float32{v}) }

// ScalarOf returns a rank-0 tensor of dtype dt holding the numeric value v.
func ScalarOf(dt DType, v float64) *Tensor {
	t := New(dt, ScalarShape())
	t.SetFloat(0, v)
	return t
}

// ScalarInt returns a rank-0 Int32 tensor holding v.
func ScalarInt(v int32) *Tensor { return FromInt32s(ScalarShape(), []int32{v}) }

// ScalarBool returns a rank-0 Bool tensor holding v.
func ScalarBool(v bool) *Tensor { return FromBools(ScalarShape(), []bool{v}) }

// ScalarString returns a rank-0 String tensor holding v.
func ScalarString(v string) *Tensor { return FromStrings(ScalarShape(), []string{v}) }

// Fill returns a tensor of the given dtype/shape with every element set to v
// (numeric dtypes; zero works for every dtype).
func Fill(alloc Alloc, dt DType, shape Shape, v float64) *Tensor {
	t := alloc(dt, shape)
	if v == 0 {
		t.zero()
		return t
	}
	n := t.NumElements()
	for i := 0; i < n; i++ {
		t.SetFloat(i, v)
	}
	return t
}

// Clone returns a deep copy of the tensor. The buffer is allocated by the
// copy itself, so it is not zeroed first.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{dtype: t.dtype, shape: t.shape.Clone()}
	switch buf := t.buf.(type) {
	case []bool:
		c.buf = slices.Clone(buf)
	case []int32:
		c.buf = slices.Clone(buf)
	case []int64:
		c.buf = slices.Clone(buf)
	case []float32:
		c.buf = slices.Clone(buf)
	case []float64:
		c.buf = slices.Clone(buf)
	case []string:
		c.buf = slices.Clone(buf)
	}
	return c
}

// CopyFrom copies o's elements into t's buffer; dtype and element count
// must match (shapes may differ).
func (t *Tensor) CopyFrom(o *Tensor) {
	if t.dtype != o.dtype || t.NumElements() != o.NumElements() {
		panic(fmt.Sprintf("tensor: CopyFrom %v%v into %v%v", o.dtype, o.shape, t.dtype, t.shape))
	}
	switch t.dtype {
	case Bool:
		copy(t.Bools(), o.Bools())
	case Int32:
		copy(t.Int32s(), o.Int32s())
	case Int64:
		copy(t.Int64s(), o.Int64s())
	case Float32:
		copy(t.Float32s(), o.Float32s())
	case Float64:
		copy(t.Float64s(), o.Float64s())
	case String:
		copy(t.Strings(), o.Strings())
	}
}

// ViewAs returns a tensor of the given shape sharing t's buffer; t itself
// when the shape already matches. The element count must agree.
func (t *Tensor) ViewAs(shape Shape) *Tensor {
	if t.shape.Equal(shape) {
		return t
	}
	checkLen(shape, t.NumElements())
	return &Tensor{dtype: t.dtype, shape: shape.Clone(), buf: t.buf}
}

// Reshape returns a view of the tensor with a new shape that must have the
// same number of elements. One dimension may be -1 and is inferred.
func (t *Tensor) Reshape(shape Shape) (*Tensor, error) {
	resolved, err := ResolveReshape(t.NumElements(), shape)
	if err != nil {
		return nil, err
	}
	return &Tensor{dtype: t.dtype, shape: resolved, buf: t.buf}, nil
}

// ResolveReshape resolves a reshape specification (which may contain a
// single -1 wildcard) against a known element count.
func ResolveReshape(numElements int, shape Shape) (Shape, error) {
	out := shape.Clone()
	wild := -1
	known := 1
	for i, d := range out {
		if d < 0 {
			if wild >= 0 {
				return nil, fmt.Errorf("tensor: reshape %v has more than one unknown dimension", shape)
			}
			wild = i
		} else {
			known *= d
		}
	}
	if wild >= 0 {
		if known == 0 || numElements%known != 0 {
			return nil, fmt.Errorf("tensor: cannot infer dimension for reshape %v of %d elements", shape, numElements)
		}
		out[wild] = numElements / known
	} else if known != numElements {
		return nil, fmt.Errorf("tensor: reshape %v needs %d elements, tensor has %d", shape, known, numElements)
	}
	return out, nil
}

// FloatAt returns element i (flat index) converted to float64. It panics on
// non-numeric tensors.
func (t *Tensor) FloatAt(i int) float64 {
	switch t.dtype {
	case Int32:
		return float64(t.Int32s()[i])
	case Int64:
		return float64(t.Int64s()[i])
	case Float32:
		return float64(t.Float32s()[i])
	case Float64:
		return t.Float64s()[i]
	default:
		panic(fmt.Sprintf("tensor: FloatAt on %v tensor", t.dtype))
	}
}

// SetFloat stores v (converted to the element type) at flat index i. It
// panics on non-numeric tensors.
func (t *Tensor) SetFloat(i int, v float64) {
	switch t.dtype {
	case Int32:
		t.Int32s()[i] = int32(v)
	case Int64:
		t.Int64s()[i] = int64(v)
	case Float32:
		t.Float32s()[i] = float32(v)
	case Float64:
		t.Float64s()[i] = v
	default:
		panic(fmt.Sprintf("tensor: SetFloat on %v tensor", t.dtype))
	}
}

// IntAt returns element i (flat index) converted to int. It panics on
// non-integer tensors.
func (t *Tensor) IntAt(i int) int {
	switch t.dtype {
	case Int32:
		return int(t.Int32s()[i])
	case Int64:
		return int(t.Int64s()[i])
	default:
		panic(fmt.Sprintf("tensor: IntAt on %v tensor", t.dtype))
	}
}

// Cast converts the tensor to the target numeric or bool dtype, into a new
// buffer even when the dtype already matches. Bool→numeric yields 0/1;
// numeric→bool yields v != 0.
func (t *Tensor) Cast(alloc Alloc, dt DType) (*Tensor, error) {
	if t.dtype != dt && (t.dtype == String || dt == String) {
		return nil, fmt.Errorf("tensor: cannot cast %v to %v", t.dtype, dt)
	}
	out := alloc(dt, t.shape)
	if t.dtype == dt {
		out.CopyFrom(t)
		return out, nil
	}
	n := t.NumElements()
	if t.dtype == Bool {
		for i, v := range t.Bools() {
			x := 0.0
			if v {
				x = 1
			}
			out.SetFloat(i, x)
		}
		return out, nil
	}
	if dt == Bool {
		dst := out.Bools()
		for i := 0; i < n; i++ {
			dst[i] = t.FloatAt(i) != 0
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		out.SetFloat(i, t.FloatAt(i))
	}
	return out, nil
}

// Equal reports exact equality of dtype, shape and elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if t.dtype != o.dtype || !t.shape.Equal(o.shape) {
		return false
	}
	n := t.NumElements()
	switch t.dtype {
	case Bool:
		a, b := t.Bools(), o.Bools()
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				return false
			}
		}
	case String:
		a, b := t.Strings(), o.Strings()
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				return false
			}
		}
	default:
		for i := 0; i < n; i++ {
			if t.FloatAt(i) != o.FloatAt(i) {
				return false
			}
		}
	}
	return true
}

// AllClose reports whether two numeric tensors agree element-wise within
// absolute tolerance atol plus relative tolerance rtol.
func (t *Tensor) AllClose(o *Tensor, atol, rtol float64) bool {
	if !t.shape.Equal(o.shape) || !t.dtype.IsNumeric() || !o.dtype.IsNumeric() {
		return false
	}
	n := t.NumElements()
	for i := 0; i < n; i++ {
		a, b := t.FloatAt(i), o.FloatAt(i)
		if math.IsNaN(a) || math.IsNaN(b) {
			return false
		}
		if math.Abs(a-b) > atol+float64(rtol*math.Abs(b)) {
			return false
		}
	}
	return true
}

// String renders a compact, truncated description for debugging.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor<%v %v>[", t.dtype, t.shape)
	n := t.NumElements()
	limit := n
	if limit > 8 {
		limit = 8
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			sb.WriteString(" ")
		}
		switch t.dtype {
		case Bool:
			fmt.Fprintf(&sb, "%t", t.Bools()[i])
		case String:
			fmt.Fprintf(&sb, "%q", t.Strings()[i])
		default:
			fmt.Fprintf(&sb, "%g", t.FloatAt(i))
		}
	}
	if limit < n {
		fmt.Fprintf(&sb, " …+%d", n-limit)
	}
	sb.WriteString("]")
	return sb.String()
}
