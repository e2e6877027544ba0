package ops

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerArrayOps()
}

func registerArrayOps() {
	// Reshape(tensor, shape-vector). The shape input is a runtime tensor
	// so a graph can reshape to data-dependent extents.
	graph.RegisterOp(&graph.OpDef{
		Type: "Reshape", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[1].DType.IsInteger() {
				return nil, fmt.Errorf("Reshape shape input must be integer")
			}
			if want, ok := n.AttrShape("shape_hint"); ok {
				return []graph.IOSpec{{DType: in[0].DType, Shape: want.Clone()}}, nil
			}
			rank := -1
			if in[1].Shape.Rank() == 1 && in[1].Shape[0] >= 0 {
				rank = in[1].Shape[0]
			}
			if rank < 0 {
				return []graph.IOSpec{unknownSpec(in[0].DType, 0)}, nil
			}
			return []graph.IOSpec{unknownSpec(in[0].DType, rank)}, nil
		},
	})
	RegisterKernel("Reshape", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		sv, err := ctx.Input(1)
		if err != nil {
			return err
		}
		shape := make(tensor.Shape, sv.NumElements())
		for i := range shape {
			shape[i] = sv.IntAt(i)
		}
		out, err := t.Reshape(shape)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Transpose", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			perm, ok := n.AttrInts("perm")
			rank := in[0].Shape.Rank()
			out := make(tensor.Shape, rank)
			for i := range out {
				src := rank - 1 - i
				if ok {
					if i >= len(perm) || perm[i] < 0 || perm[i] >= rank {
						return nil, fmt.Errorf("Transpose perm %v invalid for rank %d", perm, rank)
					}
					src = perm[i]
				}
				out[i] = in[0].Shape[src]
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Transpose", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		perm, _ := ctx.Node.AttrInts("perm")
		out, err := tensor.Transpose(ctx.Alloc, t, perm)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Concat", MinInputs: 1, MaxInputs: -1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			axis := n.AttrInt("axis", 0)
			rank := in[0].Shape.Rank()
			if axis < 0 {
				axis += rank
			}
			if axis < 0 || axis >= rank {
				return nil, fmt.Errorf("Concat axis %d out of range for rank %d", axis, rank)
			}
			out := in[0].Shape.Clone()
			for _, s := range in[1:] {
				if s.DType != in[0].DType || s.Shape.Rank() != rank {
					return nil, fmt.Errorf("Concat inputs disagree")
				}
				if out[axis] >= 0 && s.Shape[axis] >= 0 {
					out[axis] += s.Shape[axis]
				} else {
					out[axis] = -1
				}
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Concat", "CPU", func(ctx *OpContext) error {
		ts := make([]*tensor.Tensor, len(ctx.Inputs))
		for i := range ctx.Inputs {
			t, err := ctx.Input(i)
			if err != nil {
				return err
			}
			ts[i] = t
		}
		out, err := tensor.Concat(ctx.Alloc, ts, ctx.Node.AttrInt("axis", 0))
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// Split divides the input along an axis into pieces given by the
	// "sizes" attribute; outputs are variadic.
	graph.RegisterOp(&graph.OpDef{
		Type: "Split", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			sizes, ok := n.AttrInts("sizes")
			if !ok || len(sizes) == 0 {
				return nil, fmt.Errorf("Split needs a sizes attribute")
			}
			axis := n.AttrInt("axis", 0)
			rank := in[0].Shape.Rank()
			if axis < 0 {
				axis += rank
			}
			if axis < 0 || axis >= rank {
				return nil, fmt.Errorf("Split axis %d out of range for rank %d", axis, rank)
			}
			out := make([]graph.IOSpec, len(sizes))
			for i, sz := range sizes {
				s := in[0].Shape.Clone()
				s[axis] = sz
				out[i] = graph.IOSpec{DType: in[0].DType, Shape: s}
			}
			return out, nil
		},
	})
	RegisterKernel("Split", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		sizes, _ := ctx.Node.AttrInts("sizes")
		parts, err := tensor.Split(ctx.Alloc, t, ctx.Node.AttrInt("axis", 0), sizes)
		if err != nil {
			return err
		}
		for i, p := range parts {
			ctx.SetOutput(i, p)
		}
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Slice", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			begin, ok1 := n.AttrInts("begin")
			size, ok2 := n.AttrInts("size")
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("Slice needs begin and size attributes")
			}
			rank := in[0].Shape.Rank()
			if len(begin) != rank || len(size) != rank {
				return nil, fmt.Errorf("Slice begin/size rank mismatch")
			}
			out := make(tensor.Shape, rank)
			for i := range out {
				if size[i] >= 0 {
					out[i] = size[i]
				} else if in[0].Shape[i] >= 0 {
					out[i] = in[0].Shape[i] - begin[i]
				} else {
					out[i] = -1
				}
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Slice", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		begin, _ := ctx.Node.AttrInts("begin")
		size, _ := ctx.Node.AttrInts("size")
		out, err := tensor.SliceT(ctx.Alloc, t, begin, size)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Pack", MinInputs: 1, MaxInputs: -1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			out := append(tensor.Shape{len(in)}, in[0].Shape...)
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Pack", "CPU", func(ctx *OpContext) error {
		ts := make([]*tensor.Tensor, len(ctx.Inputs))
		for i := range ctx.Inputs {
			t, err := ctx.Input(i)
			if err != nil {
				return err
			}
			ts[i] = t
		}
		out, err := tensor.Stack(ctx.Alloc, ts)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Unpack", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[0].Shape.Rank() < 1 || in[0].Shape[0] < 0 {
				return nil, fmt.Errorf("Unpack needs a known leading dimension")
			}
			out := make([]graph.IOSpec, in[0].Shape[0])
			row := in[0].Shape[1:].Clone()
			for i := range out {
				out[i] = graph.IOSpec{DType: in[0].DType, Shape: row.Clone()}
			}
			return out, nil
		},
	})
	RegisterKernel("Unpack", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		parts, err := tensor.Unstack(ctx.Alloc, t)
		if err != nil {
			return err
		}
		if len(parts) != ctx.Node.NumOutputs() {
			return fmt.Errorf("Unpack arity changed at runtime")
		}
		for i, p := range parts {
			ctx.SetOutput(i, p)
		}
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "ExpandDims", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			axis := n.AttrInt("axis", 0)
			rank := in[0].Shape.Rank()
			if axis < 0 {
				axis += rank + 1
			}
			if axis < 0 || axis > rank {
				return nil, fmt.Errorf("ExpandDims axis %d out of range", axis)
			}
			out := make(tensor.Shape, 0, rank+1)
			out = append(out, in[0].Shape[:axis]...)
			out = append(out, 1)
			out = append(out, in[0].Shape[axis:]...)
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("ExpandDims", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		axis := ctx.Node.AttrInt("axis", 0)
		rank := t.Rank()
		if axis < 0 {
			axis += rank + 1
		}
		shape := make(tensor.Shape, 0, rank+1)
		shape = append(shape, t.Shape()[:axis]...)
		shape = append(shape, 1)
		shape = append(shape, t.Shape()[axis:]...)
		out, err := t.Reshape(shape)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Squeeze", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			dims, explicit := n.AttrInts("squeeze_dims")
			want := map[int]bool{}
			for _, d := range dims {
				if d < 0 {
					d += in[0].Shape.Rank()
				}
				want[d] = true
			}
			out := tensor.Shape{}
			for i, d := range in[0].Shape {
				if d == 1 && (!explicit || want[i]) {
					continue
				}
				if explicit && want[i] && d != 1 && d >= 0 {
					return nil, fmt.Errorf("Squeeze dim %d has size %d", i, d)
				}
				out = append(out, d)
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Squeeze", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		dims, explicit := ctx.Node.AttrInts("squeeze_dims")
		want := map[int]bool{}
		for _, d := range dims {
			if d < 0 {
				d += t.Rank()
			}
			want[d] = true
		}
		shape := tensor.Shape{}
		for i, d := range t.Shape() {
			if d == 1 && (!explicit || want[i]) {
				continue
			}
			shape = append(shape, d)
		}
		out, err := t.Reshape(shape)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Pad", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			pads, ok := n.AttrInts("paddings")
			if !ok || len(pads) != 2*in[0].Shape.Rank() {
				return nil, fmt.Errorf("Pad needs a paddings attribute of 2*rank ints")
			}
			out := in[0].Shape.Clone()
			for i := range out {
				if out[i] >= 0 {
					out[i] += pads[2*i] + pads[2*i+1]
				}
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Pad", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		pads, _ := ctx.Node.AttrInts("paddings")
		pp := make([][2]int, t.Rank())
		for i := range pp {
			pp[i] = [2]int{pads[2*i], pads[2*i+1]}
		}
		out, err := tensor.Pad(ctx.Alloc, t, pp)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Tile", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			mult, ok := n.AttrInts("multiples")
			if !ok || len(mult) != in[0].Shape.Rank() {
				return nil, fmt.Errorf("Tile needs a multiples attribute of rank ints")
			}
			out := in[0].Shape.Clone()
			for i := range out {
				if out[i] >= 0 {
					out[i] *= mult[i]
				}
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Tile", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		mult, _ := ctx.Node.AttrInts("multiples")
		out, err := tensor.Tile(ctx.Alloc, t, mult)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "OneHot", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			depth := n.AttrInt("depth", 0)
			if depth <= 0 {
				return nil, fmt.Errorf("OneHot needs a positive depth attribute")
			}
			out := append(in[0].Shape.Clone(), depth)
			return []graph.IOSpec{{DType: n.AttrDType("dtype", tensor.Float32), Shape: out}}, nil
		},
	})
	RegisterKernel("OneHot", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out, err := tensor.OneHot(ctx.Alloc, t, ctx.Node.AttrInt("depth", 0), ctx.Node.AttrDType("dtype", tensor.Float32))
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// Gather: the sparse read at the heart of the embedding layer (§4.2).
	graph.RegisterOp(&graph.OpDef{
		Type: "Gather", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[1].DType.IsInteger() {
				return nil, fmt.Errorf("Gather indices must be integer")
			}
			if in[0].Shape.Rank() < 1 {
				return nil, fmt.Errorf("Gather params must have rank >= 1")
			}
			out := append(in[1].Shape.Clone(), in[0].Shape[1:]...)
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	RegisterKernel("Gather", "CPU", func(ctx *OpContext) error {
		// Gather accepts either a tensor or a variable reference as
		// params, so it can be colocated with the shard it reads (§4.2)
		// and copy only the touched rows instead of the whole buffer.
		indices, err := ctx.Input(1)
		if err != nil {
			return err
		}
		if ctx.Inputs[0].Ref != nil {
			v, err := ctx.InputVar(0)
			if err != nil {
				return err
			}
			return v.WithValue(func(cur *tensor.Tensor) error {
				out, err := tensor.Gather(ctx.Alloc, cur, indices)
				if err != nil {
					return err
				}
				ctx.SetOutput(0, out)
				return nil
			})
		}
		params, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out, err := tensor.Gather(ctx.Alloc, params, indices)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// DynamicPartition routes rows to shards; DynamicStitch reassembles
	// them (§4.2, Figure 3).
	graph.RegisterOp(&graph.OpDef{
		Type: "DynamicPartition", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			np := n.AttrInt("num_partitions", 0)
			if np < 1 {
				return nil, fmt.Errorf("DynamicPartition needs num_partitions >= 1")
			}
			out := make([]graph.IOSpec, np)
			for i := range out {
				s := in[0].Shape.Clone()
				if len(s) > 0 {
					s[0] = -1
				}
				out[i] = graph.IOSpec{DType: in[0].DType, Shape: s}
			}
			return out, nil
		},
	})
	RegisterKernel("DynamicPartition", "CPU", func(ctx *OpContext) error {
		data, err := ctx.Input(0)
		if err != nil {
			return err
		}
		labels, err := ctx.Input(1)
		if err != nil {
			return err
		}
		parts, err := tensor.DynamicPartition(ctx.Alloc, data, labels, ctx.Node.AttrInt("num_partitions", 1))
		if err != nil {
			return err
		}
		for i, p := range parts {
			ctx.SetOutput(i, p)
		}
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "DynamicStitch", MinInputs: 2, MaxInputs: -1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if len(in)%2 != 0 {
				return nil, fmt.Errorf("DynamicStitch needs N index inputs then N data inputs")
			}
			half := len(in) / 2
			dataSpec := in[half]
			s := dataSpec.Shape.Clone()
			if len(s) > 0 {
				s[0] = -1
			}
			return []graph.IOSpec{{DType: dataSpec.DType, Shape: s}}, nil
		},
	})
	RegisterKernel("DynamicStitch", "CPU", func(ctx *OpContext) error {
		half := len(ctx.Inputs) / 2
		idxs := make([]*tensor.Tensor, half)
		data := make([]*tensor.Tensor, half)
		for i := 0; i < half; i++ {
			var err error
			if idxs[i], err = ctx.Input(i); err != nil {
				return err
			}
			if data[i], err = ctx.Input(half + i); err != nil {
				return err
			}
		}
		out, err := tensor.DynamicStitch(ctx.Alloc, idxs, data)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "UnsortedSegmentSum", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			num := n.AttrInt("num_segments", -1)
			s := in[0].Shape.Clone()
			if len(s) > 0 {
				s[0] = num
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: s}}, nil
		},
	})
	RegisterKernel("UnsortedSegmentSum", "CPU", func(ctx *OpContext) error {
		data, err := ctx.Input(0)
		if err != nil {
			return err
		}
		ids, err := ctx.Input(1)
		if err != nil {
			return err
		}
		num := ctx.Node.AttrInt("num_segments", -1)
		if num < 0 {
			return fmt.Errorf("UnsortedSegmentSum needs num_segments")
		}
		out, err := tensor.UnsortedSegmentSum(ctx.Alloc, data, ids, num)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// BroadcastGradientArgs computes the reduction axes needed to undo a
	// broadcast — consumed by the gradients of broadcasting binary ops.
	graph.RegisterOp(&graph.OpDef{
		Type: "BroadcastGradientArgs", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{unknownSpec(tensor.Int32, 1), unknownSpec(tensor.Int32, 1)}, nil
		},
	})
	RegisterKernel("BroadcastGradientArgs", "CPU", func(ctx *OpContext) error {
		sa, err := ctx.Input(0)
		if err != nil {
			return err
		}
		sb, err := ctx.Input(1)
		if err != nil {
			return err
		}
		toShape := func(t *tensor.Tensor) tensor.Shape {
			s := make(tensor.Shape, t.NumElements())
			for i := range s {
				s[i] = t.IntAt(i)
			}
			return s
		}
		ra, rb := reduceAxesForBroadcast(toShape(sa), toShape(sb))
		mk := func(axes []int) *tensor.Tensor {
			t := ctx.Alloc(tensor.Int32, tensor.Shape{len(axes)})
			for i, a := range axes {
				t.Int32s()[i] = int32(a)
			}
			return t
		}
		ctx.SetOutput(0, mk(ra))
		ctx.SetOutput(1, mk(rb))
		return nil
	})
}

// reduceAxesForBroadcast returns, for each operand shape, the output axes
// that must be summed to reduce a broadcast gradient back to that operand.
func reduceAxesForBroadcast(a, b tensor.Shape) (ra, rb []int) {
	r := len(a)
	if len(b) > r {
		r = len(b)
	}
	for i := 0; i < r; i++ {
		da, db := 1, 1
		if i >= r-len(a) {
			da = a[i-(r-len(a))]
		}
		if i >= r-len(b) {
			db = b[i-(r-len(b))]
		}
		if i < r-len(a) || (da == 1 && db != 1) {
			ra = append(ra, i)
		}
		if i < r-len(b) || (db == 1 && da != 1) {
			rb = append(rb, i)
		}
	}
	return ra, rb
}
