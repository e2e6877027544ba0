package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerNNOps()
}

func convAttrs(n *graph.Node) (strideH, strideW int, pad tensor.ConvPadding, err error) {
	strides, ok := n.AttrInts("strides")
	if !ok || len(strides) != 2 {
		return 0, 0, 0, fmt.Errorf("%s needs a strides attribute of two ints", n.Op())
	}
	pad, err = tensor.ParsePadding(n.AttrString("padding", "VALID"))
	return strides[0], strides[1], pad, err
}

func poolAttrs(n *graph.Node) (kh, kw, strideH, strideW int, pad tensor.ConvPadding, err error) {
	ksize, ok := n.AttrInts("ksize")
	if !ok || len(ksize) != 2 {
		return 0, 0, 0, 0, 0, fmt.Errorf("%s needs a ksize attribute of two ints", n.Op())
	}
	strides, ok := n.AttrInts("strides")
	if !ok || len(strides) != 2 {
		return 0, 0, 0, 0, 0, fmt.Errorf("%s needs a strides attribute of two ints", n.Op())
	}
	pad, err = tensor.ParsePadding(n.AttrString("padding", "VALID"))
	return ksize[0], ksize[1], strides[0], strides[1], pad, err
}

func convOutDim(in, k, stride int, pad tensor.ConvPadding) int {
	if in < 0 {
		return -1
	}
	if pad == tensor.PaddingSame {
		return (in + stride - 1) / stride
	}
	return (in-k)/stride + 1
}

func registerNNOps() {
	// Conv2D: NHWC input × HWIO filter (§3.1's "mini-batch 2-D
	// convolution takes two 4-D tensors and produces another 4-D tensor").
	graph.RegisterOp(&graph.OpDef{
		Type: "Conv2D", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			sh, sw, pad, err := convAttrs(n)
			if err != nil {
				return nil, err
			}
			is, fs := in[0].Shape, in[1].Shape
			if is.Rank() != 4 || fs.Rank() != 4 {
				return nil, fmt.Errorf("Conv2D needs rank-4 input and filter")
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: tensor.Shape{
				is[0], convOutDim(is[1], fs[0], sh, pad), convOutDim(is[2], fs[1], sw, pad), fs[3],
			}}}, nil
		},
	})
	RegisterKernel("Conv2D", "CPU", func(ctx *OpContext) error {
		in, err := ctx.Input(0)
		if err != nil {
			return err
		}
		filter, err := ctx.Input(1)
		if err != nil {
			return err
		}
		sh, sw, pad, err := convAttrs(ctx.Node)
		if err != nil {
			return err
		}
		out, err := tensor.Conv2D(in, filter, sh, sw, pad)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// Conv2DBackpropInput(input_sizes, filter, out_backprop): input_sizes
	// is a runtime int vector (usually produced by a Shape op) so the
	// gradient graph adapts to the batch size.
	graph.RegisterOp(&graph.OpDef{
		Type: "Conv2DBackpropInput", MinInputs: 3, MaxInputs: 3,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{unknownSpec(in[2].DType, 4)}, nil
		},
	})
	RegisterKernel("Conv2DBackpropInput", "CPU", func(ctx *OpContext) error {
		sizes, err := ctx.Input(0)
		if err != nil {
			return err
		}
		filter, err := ctx.Input(1)
		if err != nil {
			return err
		}
		grad, err := ctx.Input(2)
		if err != nil {
			return err
		}
		sh, sw, pad, err := convAttrs(ctx.Node)
		if err != nil {
			return err
		}
		shape := make(tensor.Shape, sizes.NumElements())
		for i := range shape {
			shape[i] = sizes.IntAt(i)
		}
		out, err := tensor.Conv2DBackpropInput(shape, filter, grad, sh, sw, pad)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Conv2DBackpropFilter", MinInputs: 3, MaxInputs: 3,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{unknownSpec(in[0].DType, 4)}, nil
		},
	})
	RegisterKernel("Conv2DBackpropFilter", "CPU", func(ctx *OpContext) error {
		in, err := ctx.Input(0)
		if err != nil {
			return err
		}
		sizes, err := ctx.Input(1)
		if err != nil {
			return err
		}
		grad, err := ctx.Input(2)
		if err != nil {
			return err
		}
		sh, sw, pad, err := convAttrs(ctx.Node)
		if err != nil {
			return err
		}
		shape := make(tensor.Shape, sizes.NumElements())
		for i := range shape {
			shape[i] = sizes.IntAt(i)
		}
		out, err := tensor.Conv2DBackpropFilter(in, shape, grad, sh, sw, pad)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "MaxPool", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			kh, kw, sh, sw, pad, err := poolAttrs(n)
			if err != nil {
				return nil, err
			}
			is := in[0].Shape
			if is.Rank() != 4 {
				return nil, fmt.Errorf("MaxPool needs rank-4 input")
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: tensor.Shape{
				is[0], convOutDim(is[1], kh, sh, pad), convOutDim(is[2], kw, sw, pad), is[3],
			}}}, nil
		},
	})
	RegisterKernel("MaxPool", "CPU", func(ctx *OpContext) error {
		in, err := ctx.Input(0)
		if err != nil {
			return err
		}
		kh, kw, sh, sw, pad, err := poolAttrs(ctx.Node)
		if err != nil {
			return err
		}
		out, err := tensor.MaxPool(in, kh, kw, sh, sw, pad)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// MaxPoolGrad(orig_input, grad).
	graph.RegisterOp(&graph.OpDef{
		Type: "MaxPoolGrad", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone()}}, nil
		},
	})
	RegisterKernel("MaxPoolGrad", "CPU", func(ctx *OpContext) error {
		in, err := ctx.Input(0)
		if err != nil {
			return err
		}
		grad, err := ctx.Input(1)
		if err != nil {
			return err
		}
		kh, kw, sh, sw, pad, err := poolAttrs(ctx.Node)
		if err != nil {
			return err
		}
		out, err := tensor.MaxPoolGrad(in, grad, kh, kw, sh, sw, pad)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "AvgPool", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			kh, kw, sh, sw, pad, err := poolAttrs(n)
			if err != nil {
				return nil, err
			}
			is := in[0].Shape
			return []graph.IOSpec{{DType: in[0].DType, Shape: tensor.Shape{
				is[0], convOutDim(is[1], kh, sh, pad), convOutDim(is[2], kw, sw, pad), is[3],
			}}}, nil
		},
	})
	RegisterKernel("AvgPool", "CPU", func(ctx *OpContext) error {
		in, err := ctx.Input(0)
		if err != nil {
			return err
		}
		kh, kw, sh, sw, pad, err := poolAttrs(ctx.Node)
		if err != nil {
			return err
		}
		out, err := tensor.AvgPool(in, kh, kw, sh, sw, pad)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// BiasAdd adds a rank-1 bias over the last dimension.
	graph.RegisterOp(&graph.OpDef{
		Type: "BiasAdd", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if in[1].Shape.Rank() != 1 {
				return nil, fmt.Errorf("BiasAdd bias must be rank-1")
			}
			return sameAsInput(n, in)
		},
	})
	RegisterKernel("BiasAdd", "CPU", func(ctx *OpContext) error {
		v, err := ctx.Input(0)
		if err != nil {
			return err
		}
		b, err := ctx.Input(1)
		if err != nil {
			return err
		}
		out, err := tensor.BinaryInto(ctx.Alloc(v.DType(), v.Shape()), tensor.OpAdd, v, b)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// BiasAddGrad reduces the incoming gradient over all but the last
	// dimension.
	graph.RegisterOp(&graph.OpDef{
		Type: "BiasAddGrad", MinInputs: 1, MaxInputs: 1,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			r := in[0].Shape.Rank()
			if r < 1 {
				return nil, fmt.Errorf("BiasAddGrad needs rank >= 1")
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: tensor.Shape{in[0].Shape[r-1]}}}, nil
		},
	})
	RegisterKernel("BiasAddGrad", "CPU", func(ctx *OpContext) error {
		g, err := ctx.Input(0)
		if err != nil {
			return err
		}
		axes := make([]int, g.Rank()-1)
		for i := range axes {
			axes[i] = i
		}
		out, err := tensor.Reduce(tensor.ReduceSum, g, axes, false)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// Softmax/LogSoftmax take [batch, classes] — reject other ranks at
	// graph-construction time (with the node's name, as the cross-entropy
	// infers do) rather than letting the kernel fail mid-step.
	softmaxInfer := func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
		if in[0].Shape.Rank() != 2 {
			return nil, fmt.Errorf("%s (%s) needs rank-2 input, got shape %v", n.Op(), n.Name(), in[0].Shape)
		}
		return sameAsInput(n, in)
	}
	graph.RegisterOp(&graph.OpDef{Type: "Softmax", MinInputs: 1, MaxInputs: 1, Infer: softmaxInfer})
	RegisterKernel("Softmax", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out, err := tensor.Softmax(t)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	graph.RegisterOp(&graph.OpDef{Type: "LogSoftmax", MinInputs: 1, MaxInputs: 1, Infer: softmaxInfer})
	RegisterKernel("LogSoftmax", "CPU", func(ctx *OpContext) error {
		t, err := ctx.Input(0)
		if err != nil {
			return err
		}
		out, err := tensor.LogSoftmax(t)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})

	// SoftmaxCrossEntropyWithLogits(logits, labels) produces the per-row
	// loss and, as a second output, the pre-computed backprop gradient
	// (softmax - labels) — a fused kernel as in the reference runtime.
	sceInfer := func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
		if in[0].Shape.Rank() != 2 {
			return nil, fmt.Errorf("%s needs rank-2 logits", n.Op())
		}
		return []graph.IOSpec{
			{DType: in[0].DType, Shape: tensor.Shape{in[0].Shape[0]}},
			{DType: in[0].DType, Shape: in[0].Shape.Clone()},
		}, nil
	}
	graph.RegisterOp(&graph.OpDef{Type: "SoftmaxCrossEntropyWithLogits", MinInputs: 2, MaxInputs: 2, Infer: sceInfer})
	RegisterKernel("SoftmaxCrossEntropyWithLogits", "CPU", func(ctx *OpContext) error {
		logits, err := ctx.Input(0)
		if err != nil {
			return err
		}
		labels, err := ctx.Input(1)
		if err != nil {
			return err
		}
		if !logits.Shape().Equal(labels.Shape()) {
			return fmt.Errorf("SoftmaxCrossEntropyWithLogits shape mismatch %v vs %v", logits.Shape(), labels.Shape())
		}
		// Max-shifted log-sum-exp: loss = Σ y·(lse − x) with
		// lse = max + log Σ exp(x − max), and softmax = exp(x − lse).
		// Going through log(softmax(x)) instead underflows for
		// large-magnitude logits and silently caps the loss.
		rows, classes := logits.Shape()[0], logits.Shape()[1]
		loss := tensor.New(logits.DType(), tensor.Shape{rows})
		backprop := tensor.New(logits.DType(), logits.Shape())
		for r := 0; r < rows; r++ {
			base := r * classes
			maxV := math.Inf(-1)
			for c := 0; c < classes; c++ {
				if v := logits.FloatAt(base + c); v > maxV {
					maxV = v
				}
			}
			var sum float64
			for c := 0; c < classes; c++ {
				sum += math.Exp(logits.FloatAt(base+c) - maxV)
			}
			lse := maxV + math.Log(sum)
			var l float64
			for c := 0; c < classes; c++ {
				i := base + c
				x := logits.FloatAt(i)
				y := labels.FloatAt(i)
				if y != 0 {
					l += y * (lse - x)
				}
				backprop.SetFloat(i, math.Exp(x-lse)-y)
			}
			loss.SetFloat(r, l)
		}
		ctx.SetOutput(0, loss)
		ctx.SetOutput(1, backprop)
		return nil
	})

	// SparseSoftmaxCrossEntropyWithLogits takes integer class labels.
	graph.RegisterOp(&graph.OpDef{
		Type: "SparseSoftmaxCrossEntropyWithLogits", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if !in[1].DType.IsInteger() {
				return nil, fmt.Errorf("sparse labels must be integer")
			}
			if in[0].Shape.Rank() != 2 {
				return nil, fmt.Errorf("%s needs rank-2 logits", n.Op())
			}
			return []graph.IOSpec{
				{DType: in[0].DType, Shape: tensor.Shape{in[0].Shape[0]}},
				{DType: in[0].DType, Shape: in[0].Shape.Clone()},
			}, nil
		},
	})
	RegisterKernel("SparseSoftmaxCrossEntropyWithLogits", "CPU", func(ctx *OpContext) error {
		logits, err := ctx.Input(0)
		if err != nil {
			return err
		}
		labels, err := ctx.Input(1)
		if err != nil {
			return err
		}
		rows, classes := logits.Shape()[0], logits.Shape()[1]
		if labels.NumElements() != rows {
			return fmt.Errorf("sparse labels length %d != batch %d", labels.NumElements(), rows)
		}
		// Same max-shifted log-sum-exp path as the dense variant:
		// loss = lse − x[label], backprop = exp(x − lse) − onehot.
		loss := tensor.New(logits.DType(), tensor.Shape{rows})
		backprop := tensor.New(logits.DType(), logits.Shape())
		for r := 0; r < rows; r++ {
			y := labels.IntAt(r)
			if y < 0 || y >= classes {
				return fmt.Errorf("sparse label %d out of range [0,%d)", y, classes)
			}
			base := r * classes
			maxV := math.Inf(-1)
			for c := 0; c < classes; c++ {
				if v := logits.FloatAt(base + c); v > maxV {
					maxV = v
				}
			}
			var sum float64
			for c := 0; c < classes; c++ {
				sum += math.Exp(logits.FloatAt(base+c) - maxV)
			}
			lse := maxV + math.Log(sum)
			loss.SetFloat(r, lse-logits.FloatAt(base+y))
			for c := 0; c < classes; c++ {
				backprop.SetFloat(base+c, math.Exp(logits.FloatAt(base+c)-lse))
			}
			backprop.SetFloat(base+y, backprop.FloatAt(base+y)-1)
		}
		ctx.SetOutput(0, loss)
		ctx.SetOutput(1, backprop)
		return nil
	})

	// InTopK(predictions, targets): accuracy helper for eval graphs.
	graph.RegisterOp(&graph.OpDef{
		Type: "InTopK", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{{DType: tensor.Bool, Shape: tensor.Shape{in[0].Shape[0]}}}, nil
		},
	})
	RegisterKernel("InTopK", "CPU", func(ctx *OpContext) error {
		preds, err := ctx.Input(0)
		if err != nil {
			return err
		}
		targets, err := ctx.Input(1)
		if err != nil {
			return err
		}
		k := ctx.Node.AttrInt("k", 1)
		rows, classes := preds.Shape()[0], preds.Shape()[1]
		out := tensor.New(tensor.Bool, tensor.Shape{rows})
		for r := 0; r < rows; r++ {
			target := targets.IntAt(r)
			tv := preds.FloatAt(r*classes + target)
			better := 0
			for c := 0; c < classes; c++ {
				if preds.FloatAt(r*classes+c) > tv {
					better++
				}
			}
			out.Bools()[r] = better < k
		}
		ctx.SetOutput(0, out)
		return nil
	})
}
