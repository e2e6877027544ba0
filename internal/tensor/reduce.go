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
func Reduce(op ReduceOp, t *Tensor, axes []int, keepDims bool) (*Tensor, error) {
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
	keptShape := Shape{} // output shape without the kept 1-dims
	for i, d := range t.shape {
		if reduced[i] {
			if keepDims {
				outShape = append(outShape, 1)
			}
		} else {
			outShape = append(outShape, d)
			keptShape = append(keptShape, d)
		}
	}

	out := New(t.dtype, outShape)
	n := t.NumElements()
	if n == 0 {
		return out, nil
	}

	outN := out.NumElements()
	// A leading block of reduced axes (BiasAddGrad's batch sum) is a column
	// sum over a [rows, outN] view: no index arithmetic, and each output
	// still adds its rows in ascending order into a float64, as below.
	if k := len(norm); k > 0 && norm[k-1] == k-1 && (op == ReduceSum || op == ReduceMean) && t.dtype.IsFloat() {
		acc := make([]float64, outN)
		if t.dtype == Float32 {
			sumRows(acc, t.Float32s())
		} else {
			sumRows(acc, t.Float64s())
		}
		for i, v := range acc {
			if op == ReduceMean {
				v /= float64(n / outN)
			}
			out.SetFloat(i, v)
		}
		return out, nil
	}

	init := 0.0
	switch op {
	case ReduceMax:
		init = math.Inf(-1)
	case ReduceMin:
		init = math.Inf(1)
	case ReduceProd:
		init = 1
	}
	acc := make([]float64, outN)
	for i := range acc {
		acc[i] = init
	}
	counts := make([]int, outN)

	inStrides := t.shape.Strides()
	keptStrides := keptShape.Strides()
	// Map each input flat index to its output flat index by dropping the
	// reduced dimensions.
	for i := 0; i < n; i++ {
		rem := i
		outIdx := 0
		kd := 0
		for d := 0; d < rank; d++ {
			idx := rem / inStrides[d]
			rem %= inStrides[d]
			if !reduced[d] {
				outIdx += idx * keptStrides[kd]
				kd++
			}
		}
		v := t.FloatAt(i)
		switch op {
		case ReduceSum, ReduceMean:
			acc[outIdx] += v
		case ReduceMax:
			if v > acc[outIdx] {
				acc[outIdx] = v
			}
		case ReduceMin:
			if v < acc[outIdx] {
				acc[outIdx] = v
			}
		case ReduceProd:
			acc[outIdx] *= v
		}
		counts[outIdx]++
	}
	for i := 0; i < outN; i++ {
		v := acc[i]
		if op == ReduceMean && counts[i] > 0 {
			v /= float64(counts[i])
		}
		out.SetFloat(i, v)
	}
	return out, nil
}

// sumRows adds v, read as rows of len(acc) elements, into acc row by row.
func sumRows[T float](acc []float64, v []T) {
	for ; len(v) > 0; v = v[len(acc):] {
		for c, x := range v[:len(acc)] {
			acc[c] += float64(x)
		}
	}
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
func ArgMax(t *Tensor, axis int) (*Tensor, error) {
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
	out := New(Int64, outShape)
	idx := out.Int64s()

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
func Softmax(t *Tensor) (*Tensor, error) {
	if !t.dtype.IsFloat() || t.Rank() < 1 {
		return nil, fmt.Errorf("tensor: Softmax needs a float tensor of rank >= 1, got %v%v", t.dtype, t.shape)
	}
	out := New(t.dtype, t.shape)
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
func LogSoftmax(t *Tensor) (*Tensor, error) {
	if !t.dtype.IsFloat() || t.Rank() < 1 {
		return nil, fmt.Errorf("tensor: LogSoftmax needs a float tensor of rank >= 1, got %v%v", t.dtype, t.shape)
	}
	out := New(t.dtype, t.shape)
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
