package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// ConvPadding selects how a convolution or pooling window treats borders.
type ConvPadding uint8

// Padding modes, matching the reference semantics.
const (
	PaddingValid ConvPadding = iota
	PaddingSame
)

// ParsePadding maps "VALID"/"SAME" to a ConvPadding.
func ParsePadding(s string) (ConvPadding, error) {
	switch s {
	case "VALID", "valid", "":
		return PaddingValid, nil
	case "SAME", "same":
		return PaddingSame, nil
	}
	return PaddingValid, fmt.Errorf("tensor: unknown padding %q", s)
}

func (p ConvPadding) String() string {
	if p == PaddingSame {
		return "SAME"
	}
	return "VALID"
}

// convGeometry computes the output extent and leading pad for one spatial
// dimension.
func convGeometry(in, k, stride int, pad ConvPadding) (out, padBefore int) {
	if pad == PaddingSame {
		out = (in + stride - 1) / stride
		total := (out-1)*stride + k - in
		if total < 0 {
			total = 0
		}
		return out, total / 2
	}
	return (in-k)/stride + 1, 0
}

// Window is the geometry a convolution or pooling op slides over NHWC input:
// a KH×KW window moved SH rows and SW columns per output position, placed at
// the borders by Pad. An op's attributes fix it, so shape inference and the
// kernel size the output by one rule, OutShape.
type Window struct {
	KH, KW, SH, SW int
	Pad            ConvPadding
}

// OutShape is the NHWC output shape of the window over input shape in, with
// outC channels. It refuses a window or stride below 1, an input of a rank
// other than 4 and a window that leaves no output row or column. An unknown
// input height or width gives an unknown output one; the batch and outC pass
// through as they are.
func (w Window) OutShape(in Shape, outC int) (Shape, error) {
	if w.KH < 1 || w.KW < 1 || w.SH < 1 || w.SW < 1 {
		return nil, fmt.Errorf("tensor: window %dx%d with strides [%d,%d]: window and strides must be at least 1", w.KH, w.KW, w.SH, w.SW)
	}
	if len(in) != 4 {
		return nil, fmt.Errorf("tensor: a window needs NHWC input, got %v", in)
	}
	out := Shape{in[0], -1, -1, outC}
	for i, ks := range [2][2]int{{w.KH, w.SH}, {w.KW, w.SW}} {
		if in[1+i] < 0 {
			continue
		}
		if out[1+i], _ = convGeometry(in[1+i], ks[0], ks[1], w.Pad); out[1+i] < 1 {
			return nil, fmt.Errorf("tensor: window %dx%d with strides [%d,%d] and %v padding leaves no output over %v", w.KH, w.KW, w.SH, w.SW, w.Pad, in)
		}
	}
	return out, nil
}

// tap is one in-bounds position of a window: in is the input pixel
// (b·H+iy)·W+ix and k the window position ky·KW+kx.
type tap struct{ in, k int }

// walk calls f for each output pixel o of batches [b0,b1) of input shape in,
// in NHW order, with the window's in-bounds taps in (ky, kx) order. The taps
// slice is reused from call to call. The window must have passed OutShape for
// in, and a tap's k must only be read where KH·KW taps exist (a filter).
func (w Window) walk(in Shape, b0, b1 int, f func(o int, taps []tap)) {
	inH, inW := in[1], in[2]
	outH, padH := convGeometry(inH, w.KH, w.SH, w.Pad)
	outW, padW := convGeometry(inW, w.KW, w.SW, w.Pad)
	taps := make([]tap, 0, min(w.KH, inH)*min(w.KW, inW))
	for b := b0; b < b1; b++ {
		for oy := 0; oy < outH; oy++ {
			iy := oy*w.SH - padH
			ky0, ky1 := max(0, -iy), min(w.KH, inH-iy)
			for ox := 0; ox < outW; ox++ {
				ix := ox*w.SW - padW
				kx0, kx1 := max(0, -ix), min(w.KW, inW-ix)
				taps = taps[:0]
				for ky := ky0; ky < ky1; ky++ {
					row := (b*inH+iy+ky)*inW + ix
					for kx := kx0; kx < kx1; kx++ {
						taps = append(taps, tap{row + kx, ky*w.KW + kx})
					}
				}
				f((b*outH+oy)*outW+ox, taps)
			}
		}
	}
}

// Conv2D computes a mini-batch 2-D convolution. Input is NHWC
// [batch,h,w,inC], filter is HWIO [kh,kw,inC,outC]; the output is NHWC.
// This is the 4-D-in/4-D-out operation the paper cites as the canonical
// tensor computation (§3.1).
func Conv2D(alloc Alloc, input, filter *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || filter.Rank() != 4 {
		return nil, fmt.Errorf("tensor: Conv2D needs NHWC input and HWIO filter, got %v and %v", input.shape, filter.shape)
	}
	if input.dtype != Float32 || filter.dtype != Float32 {
		return nil, fmt.Errorf("tensor: Conv2D implemented for float32 only")
	}
	if input.shape[3] != filter.shape[2] {
		return nil, fmt.Errorf("tensor: Conv2D channel mismatch: input %v filter %v", input.shape, filter.shape)
	}
	inC, outC := filter.shape[2], filter.shape[3]
	w := Window{filter.shape[0], filter.shape[1], strideH, strideW, pad}
	shape, err := w.OutShape(input.shape, outC)
	if err != nil {
		return nil, err
	}
	out := alloc(Float32, shape)
	src, flt, dst := input.Float32s(), filter.Float32s(), out.Float32s()
	clear(dst)
	parallelBatches(input.shape[0], func(b0, b1 int) {
		w.walk(input.shape, b0, b1, func(o int, taps []tap) {
			drow := dst[o*outC : (o+1)*outC]
			for _, t := range taps {
				frows := flt[t.k*inC*outC : (t.k+1)*inC*outC]
				for c, sv := range src[t.in*inC : (t.in+1)*inC] {
					if sv == 0 {
						continue
					}
					frow := frows[c*outC : (c+1)*outC]
					frow = frow[:len(drow)]
					for oc := range drow {
						drow[oc] += float32(sv * frow[oc])
					}
				}
			}
		})
	})
	return out, nil
}

func parallelBatches(batch int, work func(b0, b1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if batch < 2 || workers == 1 {
		work(0, batch)
		return
	}
	if workers > batch {
		workers = batch
	}
	chunk := (batch + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		b0 := w * chunk
		b1 := min(b0+chunk, batch)
		if b0 >= b1 {
			break
		}
		wg.Add(1)
		go func(b0, b1 int) {
			defer wg.Done()
			work(b0, b1)
		}(b0, b1)
	}
	wg.Wait()
}

// checkGrad checks the shapes of a Conv2D gradient's operands against each
// other: the input has the filter's inC channels, and the gradient has the
// shape the window gives over the input.
func (w Window) checkGrad(in, filter, grad Shape) error {
	want, err := w.OutShape(in, filter[3])
	if err == nil && (in[3] != filter[2] || !grad.Equal(want)) {
		err = fmt.Errorf("tensor: Conv2D gradient %v does not fit input %v and filter %v", grad, in, filter)
	}
	return err
}

// Conv2DBackpropInput computes the gradient of Conv2D with respect to its
// input, given the output gradient.
func Conv2DBackpropInput(alloc Alloc, inputShape Shape, filter, gradOut *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if len(inputShape) != 4 || filter.Rank() != 4 || gradOut.Rank() != 4 || filter.dtype != Float32 || gradOut.dtype != Float32 {
		return nil, fmt.Errorf("tensor: Conv2DBackpropInput needs an NHWC input shape, a float32 HWIO filter and NHWC gradient, got %v, %v%v and %v%v",
			inputShape, filter.dtype, filter.shape, gradOut.dtype, gradOut.shape)
	}
	w := Window{filter.shape[0], filter.shape[1], strideH, strideW, pad}
	if err := w.checkGrad(inputShape, filter.shape, gradOut.shape); err != nil {
		return nil, err
	}
	inC, outC := filter.shape[2], filter.shape[3]
	out := alloc(Float32, inputShape)
	flt, g, dst := filter.Float32s(), gradOut.Float32s(), out.Float32s()
	clear(dst)
	parallelBatches(inputShape[0], func(b0, b1 int) {
		w.walk(inputShape, b0, b1, func(o int, taps []tap) {
			grow := g[o*outC : (o+1)*outC]
			for _, t := range taps {
				frows := flt[t.k*inC*outC : (t.k+1)*inC*outC]
				drow := dst[t.in*inC : (t.in+1)*inC]
				for c := range drow {
					frow := frows[c*outC : (c+1)*outC]
					frow = frow[:len(grow)]
					var acc float32
					for oc, gv := range grow {
						acc += float32(gv * frow[oc])
					}
					drow[c] += acc
				}
			}
		})
	})
	return out, nil
}

// Conv2DBackpropFilter computes the gradient of Conv2D with respect to its
// filter, given the output gradient.
func Conv2DBackpropFilter(alloc Alloc, input *Tensor, filterShape Shape, gradOut *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || len(filterShape) != 4 || gradOut.Rank() != 4 || input.dtype != Float32 || gradOut.dtype != Float32 {
		return nil, fmt.Errorf("tensor: Conv2DBackpropFilter needs float32 NHWC input, an HWIO filter shape and float32 NHWC gradient, got %v%v, %v and %v%v",
			input.dtype, input.shape, filterShape, gradOut.dtype, gradOut.shape)
	}
	w := Window{filterShape[0], filterShape[1], strideH, strideW, pad}
	if err := w.checkGrad(input.shape, filterShape, gradOut.shape); err != nil {
		return nil, err
	}
	inC, outC := filterShape[2], filterShape[3]
	out := alloc(Float32, filterShape)
	src, g, dst := input.Float32s(), gradOut.Float32s(), out.Float32s()
	clear(dst)
	w.walk(input.shape, 0, input.shape[0], func(o int, taps []tap) {
		grow := g[o*outC : (o+1)*outC]
		for _, t := range taps {
			drows := dst[t.k*inC*outC : (t.k+1)*inC*outC]
			for c, sv := range src[t.in*inC : (t.in+1)*inC] {
				if sv == 0 {
					continue
				}
				drow := drows[c*outC : (c+1)*outC]
				drow = drow[:len(grow)]
				for oc, gv := range grow {
					drow[oc] += float32(sv * gv)
				}
			}
		}
	})
	return out, nil
}

// pool checks a pool's float32 NHWC input and returns its window and output
// shape.
func pool(op string, input *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (Window, Shape, error) {
	w := Window{kh, kw, strideH, strideW, pad}
	if input.Rank() != 4 || input.dtype != Float32 {
		return w, nil, fmt.Errorf("tensor: %s needs float32 NHWC input, got %v%v", op, input.dtype, input.shape)
	}
	shape, err := w.OutShape(input.shape, input.shape[3])
	return w, shape, err
}

// MaxPool computes max pooling over NHWC input with a [kh,kw] window.
func MaxPool(alloc Alloc, input *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	w, shape, err := pool("MaxPool", input, kh, kw, strideH, strideW, pad)
	if err != nil {
		return nil, err
	}
	c := shape[3]
	out := alloc(Float32, shape)
	src, dst := input.Float32s(), out.Float32s()
	w.walk(input.shape, 0, input.shape[0], func(o int, taps []tap) {
		for ch := range c {
			var best float32
			for i, t := range taps {
				if v := src[t.in*c+ch]; i == 0 || v > best {
					best = v
				}
			}
			dst[o*c+ch] = best
		}
	})
	return out, nil
}

// MaxPoolGrad routes the output gradient back to the argmax positions of the
// original pooling windows (first-match on ties, matching the forward scan
// order).
func MaxPoolGrad(alloc Alloc, input, gradOut *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	w, shape, err := pool("MaxPoolGrad", input, kh, kw, strideH, strideW, pad)
	if err == nil && (gradOut.dtype != Float32 || !gradOut.shape.Equal(shape)) {
		err = fmt.Errorf("tensor: MaxPoolGrad gradient %v%v does not fit pooled shape %v", gradOut.dtype, gradOut.shape, shape)
	}
	if err != nil {
		return nil, err
	}
	c := shape[3]
	out := alloc(Float32, input.shape)
	src, g, dst := input.Float32s(), gradOut.Float32s(), out.Float32s()
	clear(dst)
	w.walk(input.shape, 0, input.shape[0], func(o int, taps []tap) {
		for ch := range c {
			best := -1
			for _, t := range taps {
				if idx := t.in*c + ch; best < 0 || src[idx] > src[best] {
					best = idx
				}
			}
			if best >= 0 {
				dst[best] += g[o*c+ch]
			}
		}
	})
	return out, nil
}

// AvgPool computes average pooling over NHWC input.
func AvgPool(alloc Alloc, input *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	w, shape, err := pool("AvgPool", input, kh, kw, strideH, strideW, pad)
	if err != nil {
		return nil, err
	}
	c := shape[3]
	out := alloc(Float32, shape)
	src, dst := input.Float32s(), out.Float32s()
	w.walk(input.shape, 0, input.shape[0], func(o int, taps []tap) {
		for ch := range c {
			var sum float32
			for _, t := range taps {
				sum += src[t.in*c+ch]
			}
			if len(taps) > 0 {
				sum /= float32(len(taps))
			}
			dst[o*c+ch] = sum
		}
	})
	return out, nil
}
