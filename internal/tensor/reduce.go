package tensor

import (
	"fmt"
	"math"
	"sort"
)

// ReduceOp identifies a reduction.
type ReduceOp uint8

// Supported reductions.
const (
	ReduceSum ReduceOp = iota
	ReduceMean
	ReduceMax
	ReduceMin
	ReduceProd
)

var reduceOpNames = [...]string{"Sum", "Mean", "Max", "Min", "Prod"}

func (op ReduceOp) String() string { return reduceOpNames[op] }

// Reduce collapses the given axes of a numeric tensor. Axes may be negative
// (counted from the end). An empty axes list reduces all dimensions. When
// keepDims is true the reduced dimensions remain in the output with size 1.
// An empty input reduces to zeros.
func Reduce(alloc Alloc, op ReduceOp, t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
	if !t.dtype.IsNumeric() {
		return nil, fmt.Errorf("tensor: Reduce%v on non-numeric dtype %v", op, t.dtype)
	}
	rank := t.Rank()
	norm, err := normalizeAxes(axes, rank)
	if err != nil {
		return nil, err
	}
	reduced := make([]bool, rank)
	for _, a := range norm {
		reduced[a] = true
	}

	outShape := Shape{}
	for i, d := range t.shape {
		if !reduced[i] {
			outShape = append(outShape, d)
		} else if keepDims {
			outShape = append(outShape, 1)
		}
	}

	out := alloc(t.dtype, outShape)
	n := t.NumElements()
	if n == 0 {
		out.zero()
		return out, nil
	}

	// Walk the input with the accumulator's strides, 0 on the reduced axes:
	// each output adds its inputs in ascending order into a float64. Summing
	// leading axes (BiasAddGrad's batch sum) is a run per row into all of
	// acc, summing the last one a run per row into one element.
	init := 0.0
	switch op {
	case ReduceMax:
		init = math.Inf(-1)
	case ReduceMin:
		init = math.Inf(1)
	case ReduceProd:
		init = 1
	}
	strides, outN := keptStrides(t.shape, reduced)
	acc := make([]float64, outN)
	for i := range acc {
		acc[i] = init
	}
	switch t.dtype {
	case Int32:
		reduceInto(op, acc, t.Int32s(), out.Int32s(), t.shape, strides, sumLoop[int32])
	case Int64:
		reduceInto(op, acc, t.Int64s(), out.Int64s(), t.shape, strides, sumLoop[int64])
	case Float32:
		reduceInto(op, acc, t.Float32s(), out.Float32s(), t.shape, strides, sumF32)
	case Float64:
		reduceInto(op, acc, t.Float64s(), out.Float64s(), t.shape, strides, sumLoop[float64])
	}
	return out, nil
}

// reduceInto folds x into acc (accumulate), divides by the count for a Mean,
// and stores each result into out rounded once into T. sum adds a contiguous
// run of x into a contiguous run of acc.
func reduceInto[T number](op ReduceOp, acc []float64, x, out []T, shape Shape, strides []int, sum func(acc []float64, x []T)) {
	accumulate(op, acc, x, shape, strides, sum)
	count := float64(len(x) / len(acc))
	for i, v := range acc {
		if op == ReduceMean {
			v /= count
		}
		out[i] = T(v)
	}
}

// sumF32 is the float32 column sum: sumLoop unless the init in
// elementwise_amd64.go installed the AVX2 one, which gives the same bits.
var sumF32 = sumLoop[float32]

// sumLoop adds each element of x, widened to float64, into acc.
func sumLoop[T number](acc []float64, x []T) {
	acc = acc[:len(x)]
	for i, v := range x {
		acc[i] += float64(v)
	}
}

// number is the element types of the numeric dtypes.
type number interface {
	int32 | int64 | float32 | float64
}

// accumulate folds x, laid over shape, into acc at the given strides; sum
// takes the Sum and Mean runs in which acc advances with x.
func accumulate[T number](op ReduceOp, acc []float64, x []T, shape Shape, strides []int, sum func(acc []float64, x []T)) {
	walk(shape, strides, nil, func(at, n, pa, _, da, _ int) {
		if op == ReduceSum || op == ReduceMean {
			if da == 1 {
				sum(acc[pa:pa+n], x[at:at+n])
				return
			}
			for i, v := range x[at : at+n] {
				acc[pa+i*da] += float64(v)
			}
			return
		}
		for i, v := range x[at : at+n] {
			p, v := &acc[pa+i*da], float64(v)
			switch op {
			case ReduceMax:
				if v > *p {
					*p = v
				}
			case ReduceMin:
				if v < *p {
					*p = v
				}
			case ReduceProd:
				*p *= v
			}
		}
	})
}

// ReduceGrad spreads g, the gradient of a reduction of an input shaped
// shape over the reduced axes, back over that shape, each element times
// scale (1 for Sum, 1/count for Mean) rounded once into g's dtype.
func ReduceGrad(alloc Alloc, g *Tensor, shape Shape, reduced []bool, scale float64) (*Tensor, error) {
	strides, kept := keptStrides(shape, reduced)
	if g.NumElements() != kept {
		return nil, fmt.Errorf("tensor: gradient has %d elements, reduction output had %d", g.NumElements(), kept)
	}
	out := alloc(g.dtype, shape)
	walk(shape, strides, nil, func(at, n, pg, _, dg, _ int) {
		for i := 0; i < n; i++ {
			out.SetFloat(at+i, g.FloatAt(pg+i*dg)*scale)
		}
	})
	return out, nil
}

func normalizeAxes(axes []int, rank int) ([]int, error) {
	if len(axes) == 0 {
		all := make([]int, rank)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	seen := make(map[int]bool, len(axes))
	out := make([]int, 0, len(axes))
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return nil, fmt.Errorf("tensor: reduction axis %d out of range for rank %d", a, rank)
		}
		if seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	sort.Ints(out)
	return out, nil
}

// ArgMax returns the index (Int64) of the largest element along axis,
// removing that axis from the shape.
func ArgMax(alloc Alloc, t *Tensor, axis int) (*Tensor, error) {
	if !t.dtype.IsNumeric() {
		return nil, fmt.Errorf("tensor: ArgMax on non-numeric dtype %v", t.dtype)
	}
	rank := t.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return nil, fmt.Errorf("tensor: ArgMax axis %d out of range for rank %d", axis, rank)
	}
	outShape := Shape{}
	for i, d := range t.shape {
		if i != axis {
			outShape = append(outShape, d)
		}
	}
	out := alloc(Int64, outShape)
	idx := out.Int64s()
	clear(idx)

	// Decompose flat input index as (outer, axis, inner).
	inner := 1
	for i := axis + 1; i < rank; i++ {
		inner *= t.shape[i]
	}
	axisLen := t.shape[axis]
	outer := t.NumElements() / (inner * axisLen)
	best := make([]float64, out.NumElements())
	for i := range best {
		best[i] = math.Inf(-1)
	}
	for o := 0; o < outer; o++ {
		for a := 0; a < axisLen; a++ {
			base := (o*axisLen + a) * inner
			outBase := o * inner
			for in := 0; in < inner; in++ {
				v := t.FloatAt(base + in)
				if v > best[outBase+in] {
					best[outBase+in] = v
					idx[outBase+in] = int64(a)
				}
			}
		}
	}
	return out, nil
}

// Softmax computes softmax along the last axis of a float tensor, with the
// usual max-subtraction for numeric stability.
func Softmax(alloc Alloc, t *Tensor) (*Tensor, error) {
	if !t.dtype.IsFloat() || t.Rank() < 1 {
		return nil, fmt.Errorf("tensor: Softmax needs a float tensor of rank >= 1, got %v%v", t.dtype, t.shape)
	}
	out := alloc(t.dtype, t.shape)
	classes := t.shape[t.Rank()-1]
	rows := t.NumElements() / classes
	for r := 0; r < rows; r++ {
		base := r * classes
		maxV := math.Inf(-1)
		for c := 0; c < classes; c++ {
			if v := t.FloatAt(base + c); v > maxV {
				maxV = v
			}
		}
		var sum float64
		for c := 0; c < classes; c++ {
			e := math.Exp(t.FloatAt(base+c) - maxV)
			out.SetFloat(base+c, e)
			sum += e
		}
		for c := 0; c < classes; c++ {
			out.SetFloat(base+c, out.FloatAt(base+c)/sum)
		}
	}
	return out, nil
}

// LogSoftmax computes log(softmax(t)) along the last axis directly as
// (x - max) - log Σ exp(x - max), never materializing the softmax — for
// large-magnitude logits log(softmax(x)) underflows to log(0) while the
// shifted form stays exact.
func LogSoftmax(alloc Alloc, t *Tensor) (*Tensor, error) {
	if !t.dtype.IsFloat() || t.Rank() < 1 {
		return nil, fmt.Errorf("tensor: LogSoftmax needs a float tensor of rank >= 1, got %v%v", t.dtype, t.shape)
	}
	out := alloc(t.dtype, t.shape)
	classes := t.shape[t.Rank()-1]
	rows := t.NumElements() / classes
	for r := 0; r < rows; r++ {
		base := r * classes
		maxV := math.Inf(-1)
		for c := 0; c < classes; c++ {
			if v := t.FloatAt(base + c); v > maxV {
				maxV = v
			}
		}
		var sum float64
		for c := 0; c < classes; c++ {
			sum += math.Exp(t.FloatAt(base+c) - maxV)
		}
		lse := math.Log(sum)
		for c := 0; c < classes; c++ {
			out.SetFloat(base+c, t.FloatAt(base+c)-maxV-lse)
		}
	}
	return out, nil
}
