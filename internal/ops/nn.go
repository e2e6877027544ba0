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

// window reads the attributes that fix a convolution's or a pool's window:
// strides, padding and, on a pool, ksize. A convolution's window is its
// filter's height and width; a pool with no ksize has a 0×0 window, which
// Window.OutShape refuses.
func window(n *graph.Node) (w tensor.Window, err error) {
	strides, ok := n.AttrInts("strides")
	if !ok || len(strides) != 2 {
		return w, fmt.Errorf("%s needs a strides attribute of two ints", n.Op())
	}
	w.SH, w.SW = strides[0], strides[1]
	if ksize, ok := n.AttrInts("ksize"); ok {
		if len(ksize) != 2 {
			return w, fmt.Errorf("%s needs a ksize attribute of two ints", n.Op())
		}
		w.KH, w.KW = ksize[0], ksize[1]
	}
	w.Pad, err = tensor.ParsePadding(n.AttrString("padding", "VALID"))
	return w, err
}

// poolInfer sizes a pool's output: the input's channels, over the window.
func poolInfer(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
	is := in[0].Shape
	if is.Rank() != 4 {
		return nil, fmt.Errorf("%s needs NHWC input, got %v", n.Op(), is)
	}
	w, err := window(n)
	if err != nil {
		return nil, err
	}
	out, err := w.OutShape(is, is[3])
	if err != nil {
		return nil, err
	}
	return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
}

// windowKernel registers the CPU kernel of a convolution or pooling op,
// which runs f on the node's window and its inputs.
func windowKernel(op string, f func(alloc tensor.Alloc, w tensor.Window, in []*tensor.Tensor) (*tensor.Tensor, error)) {
	RegisterKernel(op, "CPU", func(ctx *OpContext) error {
		w, err := window(ctx.Node)
		if err != nil {
			return err
		}
		in := make([]*tensor.Tensor, len(ctx.Inputs))
		for i := range in {
			if in[i], err = ctx.Input(i); err != nil {
				return err
			}
		}
		out, err := f(ctx.Alloc, w, in)
		if err != nil {
			return err
		}
		ctx.SetOutput(0, out)
		return nil
	})
}

// shapeOf reads an integer vector input (a Shape op's output) as a shape.
func shapeOf(t *tensor.Tensor) (tensor.Shape, error) {
	if !t.DType().IsInteger() {
		return nil, fmt.Errorf("a shape input must be integer, got %v", t.DType())
	}
	s := make(tensor.Shape, t.NumElements())
	for i := range s {
		s[i] = t.IntAt(i)
	}
	return s, nil
}

func registerNNOps() {
	// Conv2D: NHWC input × HWIO filter (§3.1's "mini-batch 2-D
	// convolution takes two 4-D tensors and produces another 4-D tensor").
	graph.RegisterOp(&graph.OpDef{
		Type: "Conv2D", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			is, fs := in[0].Shape.Clone(), in[1].Shape
			if is.Rank() != 4 || fs.Rank() != 4 {
				return nil, fmt.Errorf("Conv2D needs rank-4 input and filter, got %v and %v", is, fs)
			}
			w, err := window(n)
			if err != nil {
				return nil, err
			}
			// A filter height or width not known yet leaves the output's unknown.
			w.KH, w.KW = fs[0], fs[1]
			if w.KH < 0 {
				w.KH, is[1] = 1, -1
			}
			if w.KW < 0 {
				w.KW, is[2] = 1, -1
			}
			out, err := w.OutShape(is, fs[3])
			if err != nil {
				return nil, err
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: out}}, nil
		},
	})
	windowKernel("Conv2D", func(alloc tensor.Alloc, w tensor.Window, in []*tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.Conv2D(alloc, in[0], in[1], w.SH, w.SW, w.Pad)
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
	windowKernel("Conv2DBackpropInput", func(alloc tensor.Alloc, w tensor.Window, in []*tensor.Tensor) (*tensor.Tensor, error) {
		shape, err := shapeOf(in[0])
		if err != nil {
			return nil, err
		}
		return tensor.Conv2DBackpropInput(alloc, shape, in[1], in[2], w.SH, w.SW, w.Pad)
	})

	// Conv2DBackpropFilter(input, filter_sizes, out_backprop).
	graph.RegisterOp(&graph.OpDef{
		Type: "Conv2DBackpropFilter", MinInputs: 3, MaxInputs: 3,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			return []graph.IOSpec{unknownSpec(in[0].DType, 4)}, nil
		},
	})
	windowKernel("Conv2DBackpropFilter", func(alloc tensor.Alloc, w tensor.Window, in []*tensor.Tensor) (*tensor.Tensor, error) {
		shape, err := shapeOf(in[1])
		if err != nil {
			return nil, err
		}
		return tensor.Conv2DBackpropFilter(alloc, in[0], shape, in[2], w.SH, w.SW, w.Pad)
	})

	graph.RegisterOp(&graph.OpDef{Type: "MaxPool", MinInputs: 1, MaxInputs: 1, Infer: poolInfer})
	windowKernel("MaxPool", func(alloc tensor.Alloc, w tensor.Window, in []*tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.MaxPool(alloc, in[0], w.KH, w.KW, w.SH, w.SW, w.Pad)
	})

	// MaxPoolGrad(orig_input, grad).
	graph.RegisterOp(&graph.OpDef{
		Type: "MaxPoolGrad", MinInputs: 2, MaxInputs: 2,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if _, err := poolInfer(n, in); err != nil {
				return nil, err
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone()}}, nil
		},
	})
	windowKernel("MaxPoolGrad", func(alloc tensor.Alloc, w tensor.Window, in []*tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.MaxPoolGrad(alloc, in[0], in[1], w.KH, w.KW, w.SH, w.SW, w.Pad)
	})

	graph.RegisterOp(&graph.OpDef{Type: "AvgPool", MinInputs: 1, MaxInputs: 1, Infer: poolInfer})
	windowKernel("AvgPool", func(alloc tensor.Alloc, w tensor.Window, in []*tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.AvgPool(alloc, in[0], w.KH, w.KW, w.SH, w.SW, w.Pad)
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
		out, err := tensor.Binary(ctx.Alloc, tensor.OpAdd, v, b)
		if err == nil && !out.Shape().Equal(v.Shape()) {
			err = fmt.Errorf("BiasAdd bias %v does not broadcast over %v", b.Shape(), v.Shape())
		}
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
		out, err := tensor.Reduce(ctx.Alloc, tensor.ReduceSum, g, axes, false)
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
		out, err := tensor.Softmax(ctx.Alloc, t)
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
		out, err := tensor.LogSoftmax(ctx.Alloc, t)
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
		loss := ctx.Alloc(logits.DType(), tensor.Shape{rows})
		backprop := ctx.Alloc(logits.DType(), logits.Shape())
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
		loss := ctx.Alloc(logits.DType(), tensor.Shape{rows})
		backprop := ctx.Alloc(logits.DType(), logits.Shape())
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
		out := ctx.Alloc(tensor.Bool, tensor.Shape{rows})
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
