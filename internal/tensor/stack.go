package tensor

import "fmt"

// Stack packs same-shaped tensors along a new leading dimension:
// n tensors of shape S become one tensor of shape [n]+S.
func Stack(alloc Alloc, ts []*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: Stack of zero tensors")
	}
	first := ts[0]
	for _, t := range ts[1:] {
		if t.dtype != first.dtype || !t.shape.Equal(first.shape) {
			return nil, fmt.Errorf("tensor: Stack mismatch %v%v vs %v%v", first.dtype, first.shape, t.dtype, t.shape)
		}
	}
	out := alloc(first.dtype, append(Shape{len(ts)}, first.shape...))
	rowSize := first.NumElements()
	for i, t := range ts {
		copyInto(out, t, i*rowSize, 0, rowSize)
	}
	return out, nil
}

// Unstack splits a tensor along its leading dimension into shape[0] tensors.
func Unstack(alloc Alloc, t *Tensor) ([]*Tensor, error) {
	if t.Rank() < 1 {
		return nil, fmt.Errorf("tensor: Unstack needs rank >= 1")
	}
	n := t.shape[0]
	rowShape := t.shape[1:].Clone()
	rowSize := rowShape.NumElements()
	out := make([]*Tensor, n)
	for i := 0; i < n; i++ {
		row := alloc(t.dtype, rowShape)
		copyInto(row, t, 0, i*rowSize, rowSize)
		out[i] = row
	}
	return out, nil
}
