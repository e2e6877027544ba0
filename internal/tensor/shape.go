package tensor

import (
	"fmt"
	"strings"
)

// Shape describes the extent of a tensor in each dimension. A scalar has an
// empty (rank-0) shape. A dimension of -1 denotes "unknown" and may appear
// only in shape *specifications* (placeholders, shape inference); a Tensor's
// own shape is always fully defined.
type Shape []int

// ScalarShape returns the rank-0 shape.
func ScalarShape() Shape { return Shape{} }

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// IsScalar reports whether the shape has rank 0.
func (s Shape) IsScalar() bool { return len(s) == 0 }

// IsFullyDefined reports whether every dimension is known (non-negative).
func (s Shape) IsFullyDefined() bool {
	for _, d := range s {
		if d < 0 {
			return false
		}
	}
	return true
}

// NumElements returns the product of the dimensions. A scalar has one
// element. If any dimension is unknown, NumElements returns -1.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			return -1
		}
		n *= d
	}
	return n
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	if s == nil {
		return nil
	}
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compatible reports whether two shape specifications could describe the
// same tensor, treating -1 as a wildcard in either shape.
func (s Shape) Compatible(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] >= 0 && t[i] >= 0 && s[i] != t[i] {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		if d < 0 {
			parts[i] = "?"
		} else {
			parts[i] = fmt.Sprint(d)
		}
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Strides returns the row-major strides for the shape. The stride of the
// last dimension is 1.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

// Offset returns the flat row-major offset of the given multi-index.
// It panics if the index rank does not match the shape rank or any index is
// out of bounds; this is an internal programming-error check, mirroring
// slice bounds checks.
func (s Shape) Offset(idx ...int) int {
	if len(idx) != len(s) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), s))
	}
	off := 0
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		if idx[i] < 0 || idx[i] >= s[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, s))
		}
		off += idx[i] * acc
		acc *= s[i]
	}
	return off
}

// BroadcastShapes computes the shape that results from broadcasting a and b
// under NumPy-style rules: dimensions are aligned from the right, and a
// dimension of 1 stretches to match its counterpart. When the result is the
// longer operand's shape (same shapes, a scalar, a bias row) that shape itself
// is returned, so the caller must not write it.
func BroadcastShapes(a, b Shape) (Shape, error) {
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	var out Shape // nil while the result is long
	off := len(long) - len(short)
	for i, ds := range short {
		switch dl := long[off+i]; {
		case ds == dl || ds == 1:
		case dl == 1:
			if out == nil {
				out = long.Clone()
			}
			out[off+i] = ds
		default:
			return nil, fmt.Errorf("tensor: shapes %v and %v are not broadcast-compatible", a, b)
		}
	}
	if out == nil {
		return long, nil
	}
	return out, nil
}
