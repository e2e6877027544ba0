package tensor

import "fmt"

// Transpose permutes the dimensions of t according to perm, which must be a
// permutation of [0, rank). A nil perm reverses the dimensions.
func Transpose(t *Tensor, perm []int) (*Tensor, error) {
	rank := t.Rank()
	if perm == nil {
		perm = make([]int, rank)
		for i := range perm {
			perm[i] = rank - 1 - i
		}
	}
	if len(perm) != rank {
		return nil, fmt.Errorf("tensor: Transpose perm %v does not match rank %d", perm, rank)
	}
	seen := make([]bool, rank)
	outShape, inStrides, src := make(Shape, rank), t.shape.Strides(), make([]int, rank)
	for i, p := range perm {
		if p < 0 || p >= rank || seen[p] {
			return nil, fmt.Errorf("tensor: Transpose perm %v is not a permutation", perm)
		}
		seen[p] = true
		outShape[i], src[i] = t.shape[p], inStrides[p]
	}
	out := New(t.dtype, outShape)
	walk(outShape, src, nil, func(at, n, p, _, step, _ int) {
		copyRun(out, at, 1, t, p, step, n)
	})
	return out, nil
}

// copyInto copies n elements from src[srcOff:] into dst[dstOff:]; dtypes
// must match (internal helper).
func copyInto(dst, src *Tensor, dstOff, srcOff, n int) {
	copyRun(dst, dstOff, 1, src, srcOff, 1, n)
}

// copyRun copies n elements from src, starting at sp and stepping ss, into
// dst, starting at dp and stepping ds; dtypes must match.
func copyRun(dst *Tensor, dp, ds int, src *Tensor, sp, ss, n int) {
	switch dst.dtype {
	case Bool:
		stridedCopy(dst.Bools()[dp:], ds, src.Bools()[sp:], ss, n)
	case Int32:
		stridedCopy(dst.Int32s()[dp:], ds, src.Int32s()[sp:], ss, n)
	case Int64:
		stridedCopy(dst.Int64s()[dp:], ds, src.Int64s()[sp:], ss, n)
	case Float32:
		stridedCopy(dst.Float32s()[dp:], ds, src.Float32s()[sp:], ss, n)
	case Float64:
		stridedCopy(dst.Float64s()[dp:], ds, src.Float64s()[sp:], ss, n)
	case String:
		stridedCopy(dst.Strings()[dp:], ds, src.Strings()[sp:], ss, n)
	}
}

func stridedCopy[T any](dst []T, ds int, src []T, ss, n int) {
	if ds == 1 && ss == 1 {
		copy(dst[:n], src[:n])
		return
	}
	for i := 0; i < n; i++ {
		dst[i*ds] = src[i*ss]
	}
}

// Concat joins tensors along the given axis. All inputs must share dtype and
// agree on every other dimension.
func Concat(ts []*Tensor, axis int) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: Concat of zero tensors")
	}
	first := ts[0]
	rank := first.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return nil, fmt.Errorf("tensor: Concat axis %d out of range for rank %d", axis, rank)
	}
	outShape := first.shape.Clone()
	for _, t := range ts[1:] {
		if t.dtype != first.dtype || t.Rank() != rank {
			return nil, fmt.Errorf("tensor: Concat inputs disagree: %v%v vs %v%v", first.dtype, first.shape, t.dtype, t.shape)
		}
		for d := 0; d < rank; d++ {
			if d == axis {
				continue
			}
			if t.shape[d] != first.shape[d] {
				return nil, fmt.Errorf("tensor: Concat inputs disagree on dim %d: %v vs %v", d, first.shape, t.shape)
			}
		}
		outShape[axis] += t.shape[axis]
	}
	out := New(first.dtype, outShape)

	inner := 1
	for d := axis + 1; d < rank; d++ {
		inner *= outShape[d]
	}
	outer := 1
	for d := 0; d < axis; d++ {
		outer *= outShape[d]
	}
	outRow := outShape[axis] * inner
	off := 0
	for _, t := range ts {
		tRow := t.shape[axis] * inner
		for o := 0; o < outer; o++ {
			copyInto(out, t, o*outRow+off, o*tRow, tRow)
		}
		off += tRow
	}
	return out, nil
}

// Split divides t into pieces along axis with the given sizes, which must
// sum to the axis length.
func Split(t *Tensor, axis int, sizes []int) ([]*Tensor, error) {
	rank := t.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return nil, fmt.Errorf("tensor: Split axis %d out of range for rank %d", axis, rank)
	}
	total := 0
	for _, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("tensor: Split size %d is negative", s)
		}
		total += s
	}
	if total != t.shape[axis] {
		return nil, fmt.Errorf("tensor: Split sizes %v do not sum to dim %d", sizes, t.shape[axis])
	}
	inner := 1
	for d := axis + 1; d < rank; d++ {
		inner *= t.shape[d]
	}
	outer := 1
	for d := 0; d < axis; d++ {
		outer *= t.shape[d]
	}
	inRow := t.shape[axis] * inner
	out := make([]*Tensor, len(sizes))
	off := 0
	for i, s := range sizes {
		shape := t.shape.Clone()
		shape[axis] = s
		piece := New(t.dtype, shape)
		row := s * inner
		for o := 0; o < outer; o++ {
			copyInto(piece, t, o*row, o*inRow+off, row)
		}
		out[i] = piece
		off += s * inner
	}
	return out, nil
}

// SliceT extracts a contiguous region: begin and size give per-dimension
// offsets and extents. A size of -1 extends to the end of the dimension.
func SliceT(t *Tensor, begin, size []int) (*Tensor, error) {
	rank := t.Rank()
	if len(begin) != rank || len(size) != rank {
		return nil, fmt.Errorf("tensor: Slice begin/size rank mismatch for shape %v", t.shape)
	}
	outShape := make(Shape, rank)
	for d := 0; d < rank; d++ {
		sz := size[d]
		if sz < 0 {
			sz = t.shape[d] - begin[d]
		}
		if begin[d] < 0 || begin[d]+sz > t.shape[d] {
			return nil, fmt.Errorf("tensor: Slice [%d:%d) out of bounds for dim %d of %v", begin[d], begin[d]+sz, d, t.shape)
		}
		outShape[d] = sz
	}
	inStrides := t.shape.Strides()
	base := 0
	for d, b := range begin {
		base += b * inStrides[d]
	}
	out := New(t.dtype, outShape)
	walk(outShape, inStrides, nil, func(at, n, p, _, step, _ int) {
		copyRun(out, at, 1, t, base+p, step, n)
	})
	return out, nil
}

// Pad adds zero padding: paddings[d] = {before, after} for each dimension.
func Pad(t *Tensor, paddings [][2]int) (*Tensor, error) {
	rank := t.Rank()
	if len(paddings) != rank {
		return nil, fmt.Errorf("tensor: Pad needs %d padding pairs, got %d", rank, len(paddings))
	}
	outShape := make(Shape, rank)
	for d := 0; d < rank; d++ {
		if paddings[d][0] < 0 || paddings[d][1] < 0 {
			return nil, fmt.Errorf("tensor: Pad amounts must be non-negative, got %v", paddings[d])
		}
		outShape[d] = t.shape[d] + paddings[d][0] + paddings[d][1]
	}
	// Walk the input; where each element lands is the output's strides.
	outStrides := outShape.Strides()
	base := 0
	for d, p := range paddings {
		base += p[0] * outStrides[d]
	}
	out := New(t.dtype, outShape)
	walk(t.shape, outStrides, nil, func(at, n, q, _, step, _ int) {
		copyRun(out, base+q, step, t, at, 1, n)
	})
	return out, nil
}

// Tile repeats t the given number of times in each dimension.
func Tile(t *Tensor, multiples []int) (*Tensor, error) {
	rank := t.Rank()
	if len(multiples) != rank {
		return nil, fmt.Errorf("tensor: Tile needs %d multiples, got %d", rank, len(multiples))
	}
	outShape := make(Shape, rank)
	for d := 0; d < rank; d++ {
		if multiples[d] < 1 {
			return nil, fmt.Errorf("tensor: Tile multiple %d invalid", multiples[d])
		}
		outShape[d] = t.shape[d] * multiples[d]
	}
	// The output viewed as [m0, s0, m1, s1, …] reads t at (0, stride) per
	// pair of dimensions.
	inStrides := t.shape.Strides()
	view, src := make(Shape, 0, 2*rank), make([]int, 0, 2*rank)
	for d, m := range multiples {
		view = append(view, m, t.shape[d])
		src = append(src, 0, inStrides[d])
	}
	out := New(t.dtype, outShape)
	walk(view, src, nil, func(at, n, p, _, step, _ int) {
		copyRun(out, at, 1, t, p, step, n)
	})
	return out, nil
}

// OneHot expands integer indices into one-hot float vectors of the given
// depth appended as a new trailing dimension. Out-of-range indices produce
// all-zero rows, matching the reference semantics.
func OneHot(indices *Tensor, depth int, dt DType) (*Tensor, error) {
	if !indices.dtype.IsInteger() {
		return nil, fmt.Errorf("tensor: OneHot needs integer indices, got %v", indices.dtype)
	}
	if depth <= 0 {
		return nil, fmt.Errorf("tensor: OneHot depth %d invalid", depth)
	}
	outShape := append(indices.shape.Clone(), depth)
	out := New(dt, outShape)
	n := indices.NumElements()
	for i := 0; i < n; i++ {
		idx := indices.IntAt(i)
		if idx >= 0 && idx < depth {
			out.SetFloat(i*depth+idx, 1)
		}
	}
	return out, nil
}
