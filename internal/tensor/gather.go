package tensor

import "fmt"

// Gather extracts rows of params (along its first dimension) selected by the
// integer tensor indices. The result has shape indices.shape + params.shape[1:].
// This is the core primitive of the sparse embedding layer (paper §4.2,
// Figure 3): it reads only the touched rows of a potentially huge matrix.
func Gather(params, indices *Tensor) (*Tensor, error) {
	if params.Rank() < 1 {
		return nil, fmt.Errorf("tensor: Gather params must have rank >= 1")
	}
	if !indices.dtype.IsInteger() {
		return nil, fmt.Errorf("tensor: Gather indices must be integer, got %v", indices.dtype)
	}
	rows := params.shape[0]
	rowSize := params.NumElements() / max(rows, 1)
	outShape := append(indices.shape.Clone(), params.shape[1:]...)
	out := New(params.dtype, outShape)
	n := indices.NumElements()
	for i := 0; i < n; i++ {
		idx := indices.IntAt(i)
		if idx < 0 || idx >= rows {
			return nil, fmt.Errorf("tensor: Gather index %d out of range [0,%d)", idx, rows)
		}
		copyInto(out, params, i*rowSize, idx*rowSize, rowSize)
	}
	return out, nil
}

// ScatterAddInPlace adds each row of updates into params at the row named by
// indices. Rows may repeat; repeated updates accumulate. This is the sparse
// write half of the embedding layer's gradient path.
func ScatterAddInPlace(params, indices, updates *Tensor) error {
	return scatterInPlace(params, indices, updates, scatterAdd)
}

// ScatterSubInPlace subtracts each row of updates from params at the row
// named by indices.
func ScatterSubInPlace(params, indices, updates *Tensor) error {
	return scatterInPlace(params, indices, updates, scatterSub)
}

// ScatterUpdateInPlace overwrites the rows of params named by indices with
// the rows of updates; of repeated indices the last row wins.
func ScatterUpdateInPlace(params, indices, updates *Tensor) error {
	return scatterInPlace(params, indices, updates, scatterSet)
}

type scatterOp uint8

const (
	scatterAdd scatterOp = iota
	scatterSub
	scatterSet
)

func scatterInPlace(params, indices, updates *Tensor, op scatterOp) error {
	if params.Rank() < 1 {
		return fmt.Errorf("tensor: Scatter params must have rank >= 1")
	}
	if !indices.dtype.IsInteger() {
		return fmt.Errorf("tensor: Scatter indices must be integer, got %v", indices.dtype)
	}
	if params.dtype != updates.dtype || !params.dtype.IsNumeric() {
		return fmt.Errorf("tensor: Scatter dtype mismatch %v vs %v", params.dtype, updates.dtype)
	}
	rows := params.shape[0]
	rowSize := params.NumElements() / max(rows, 1)
	n := indices.NumElements()
	if updates.NumElements() != n*rowSize {
		return fmt.Errorf("tensor: Scatter updates shape %v does not match %d indices x row %d",
			updates.shape, n, rowSize)
	}
	// Each dtype in its own arithmetic: one rounding for floats, none for
	// integers, which a float64 round trip would round past 2⁵³.
	switch params.dtype {
	case Float32:
		return scatterRows(op, params.Float32s(), indices, updates.Float32s(), rows, rowSize)
	case Float64:
		return scatterRows(op, params.Float64s(), indices, updates.Float64s(), rows, rowSize)
	case Int32:
		return scatterRows(op, params.Int32s(), indices, updates.Int32s(), rows, rowSize)
	default:
		return scatterRows(op, params.Int64s(), indices, updates.Int64s(), rows, rowSize)
	}
}

func scatterRows[T float32 | float64 | int32 | int64](op scatterOp, params []T, indices *Tensor, updates []T, rows, rowSize int) error {
	for i := range indices.NumElements() {
		idx := indices.IntAt(i)
		if idx < 0 || idx >= rows {
			return fmt.Errorf("tensor: Scatter index %d out of range [0,%d)", idx, rows)
		}
		dst, src := params[idx*rowSize:(idx+1)*rowSize], updates[i*rowSize:(i+1)*rowSize]
		switch op {
		case scatterAdd:
			for j := range dst {
				dst[j] += src[j]
			}
		case scatterSub:
			for j := range dst {
				dst[j] -= src[j]
			}
		default:
			copy(dst, src)
		}
	}
	return nil
}

// DynamicPartition splits data (by rows of its first dimension) into
// numPartitions outputs according to the per-row partition labels (paper
// §4.2: the Part operation that routes embedding indices to shards).
func DynamicPartition(data, partitions *Tensor, numPartitions int) ([]*Tensor, error) {
	if !partitions.dtype.IsInteger() {
		return nil, fmt.Errorf("tensor: DynamicPartition labels must be integer, got %v", partitions.dtype)
	}
	if data.Rank() < 1 || partitions.Rank() != 1 || partitions.shape[0] != data.shape[0] {
		return nil, fmt.Errorf("tensor: DynamicPartition shapes %v / %v invalid", data.shape, partitions.shape)
	}
	if numPartitions < 1 {
		return nil, fmt.Errorf("tensor: DynamicPartition needs numPartitions >= 1")
	}
	rows := data.shape[0]
	rowSize := data.NumElements() / max(rows, 1)
	counts := make([]int, numPartitions)
	for i := 0; i < rows; i++ {
		p := partitions.IntAt(i)
		if p < 0 || p >= numPartitions {
			return nil, fmt.Errorf("tensor: partition label %d out of range [0,%d)", p, numPartitions)
		}
		counts[p]++
	}
	out := make([]*Tensor, numPartitions)
	offs := make([]int, numPartitions)
	for p := 0; p < numPartitions; p++ {
		shape := data.shape.Clone()
		shape[0] = counts[p]
		out[p] = New(data.dtype, shape)
	}
	for i := 0; i < rows; i++ {
		p := partitions.IntAt(i)
		copyInto(out[p], data, offs[p]*rowSize, i*rowSize, rowSize)
		offs[p]++
	}
	return out, nil
}

// DynamicPartitionIndices returns, for each partition, the original row
// positions routed to it. Feeding these to DynamicStitch inverts
// DynamicPartition, which is exactly how the sharded embedding graph
// reassembles per-shard Gather results (Figure 3).
func DynamicPartitionIndices(partitions *Tensor, numPartitions int) ([]*Tensor, error) {
	rows := partitions.NumElements()
	data := New(Int32, Shape{rows})
	for i := 0; i < rows; i++ {
		data.Int32s()[i] = int32(i)
	}
	return DynamicPartition(data, partitions, numPartitions)
}

// DynamicStitch interleaves rows of the data tensors into a single tensor:
// result[indices[p][i]] = data[p][i]. Later writes win on duplicates.
func DynamicStitch(indices, data []*Tensor) (*Tensor, error) {
	if len(indices) != len(data) || len(data) == 0 {
		return nil, fmt.Errorf("tensor: DynamicStitch needs matching non-empty indices/data")
	}
	maxIdx := -1
	rowSize := -1
	var dt DType
	var rowShape Shape
	for p := range data {
		if !indices[p].dtype.IsInteger() || indices[p].Rank() != 1 {
			return nil, fmt.Errorf("tensor: DynamicStitch indices[%d] must be an integer vector", p)
		}
		if indices[p].shape[0] != data[p].shape[0] {
			return nil, fmt.Errorf("tensor: DynamicStitch indices[%d] length %d != data rows %d",
				p, indices[p].shape[0], data[p].shape[0])
		}
		rs := Shape(data[p].shape[1:]).NumElements()
		if rowSize == -1 {
			rowSize = rs
			dt = data[p].dtype
			rowShape = data[p].shape[1:].Clone()
		} else if rs != rowSize || data[p].dtype != dt {
			return nil, fmt.Errorf("tensor: DynamicStitch data tensors disagree on row shape/dtype")
		}
		for i := 0; i < indices[p].NumElements(); i++ {
			if v := indices[p].IntAt(i); v > maxIdx {
				maxIdx = v
			}
		}
	}
	outShape := append(Shape{maxIdx + 1}, rowShape...)
	out := New(dt, outShape)
	for p := range data {
		n := indices[p].NumElements()
		for i := 0; i < n; i++ {
			idx := indices[p].IntAt(i)
			if idx < 0 {
				return nil, fmt.Errorf("tensor: DynamicStitch negative index %d", idx)
			}
			copyInto(out, data[p], idx*rowSize, i*rowSize, rowSize)
		}
	}
	return out, nil
}

// UnsortedSegmentSum sums rows of data into numSegments buckets selected by
// segmentIDs; used by the Gather gradient to densify sparse updates.
func UnsortedSegmentSum(data, segmentIDs *Tensor, numSegments int) (*Tensor, error) {
	if !segmentIDs.dtype.IsInteger() {
		return nil, fmt.Errorf("tensor: UnsortedSegmentSum ids must be integer")
	}
	if data.Rank() < 1 || segmentIDs.NumElements() != data.shape[0] {
		return nil, fmt.Errorf("tensor: UnsortedSegmentSum shapes %v / %v invalid", data.shape, segmentIDs.shape)
	}
	outShape := data.shape.Clone()
	outShape[0] = numSegments
	out := New(data.dtype, outShape)
	if err := ScatterAddInPlace(out, segmentIDs, data); err != nil {
		return nil, err
	}
	return out, nil
}
