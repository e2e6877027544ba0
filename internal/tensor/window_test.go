package tensor

import (
	"math"
	"testing"
)

func TestWindowOutShape(t *testing.T) {
	cases := []struct {
		w    Window
		in   Shape
		outC int
		want Shape // nil: an error
	}{
		{Window{3, 3, 1, 1, PaddingValid}, Shape{2, 5, 5, 1}, 4, Shape{2, 3, 3, 4}},
		{Window{3, 3, 2, 2, PaddingSame}, Shape{2, 5, 5, 1}, 4, Shape{2, 3, 3, 4}},
		{Window{2, 2, 2, 2, PaddingValid}, Shape{-1, -1, 4, 3}, 3, Shape{-1, -1, 2, 3}},
		{Window{8, 8, 1, 1, PaddingSame}, Shape{1, 4, 4, 1}, 1, Shape{1, 4, 4, 1}},
		{Window{8, 8, 1, 1, PaddingValid}, Shape{1, 4, 4, 1}, 1, nil},
		{Window{2, 2, 0, 0, PaddingValid}, Shape{1, 4, 4, 1}, 1, nil},
		{Window{2, 2, -1, 1, PaddingSame}, Shape{1, 4, 4, 1}, 1, nil},
		{Window{0, 0, 1, 1, PaddingSame}, Shape{1, 4, 4, 1}, 1, nil},
		{Window{-3, 2, 1, 1, PaddingSame}, Shape{1, 4, 4, 1}, 1, nil},
		{Window{2, 2, 1, 1, PaddingValid}, Shape{4, 4}, 1, nil},
		{Window{1, 1, 1, 1, PaddingSame}, Shape{1, 0, 4, 1}, 1, nil},
	}
	for _, c := range cases {
		got, err := c.w.OutShape(c.in, c.outC)
		if c.want == nil {
			if err == nil {
				t.Errorf("%+v over %v = %v, want an error", c.w, c.in, got)
			}
		} else if err != nil || !got.Equal(c.want) {
			t.Errorf("%+v over %v = %v, %v; want %v", c.w, c.in, got, err, c.want)
		}
	}
}

// windowOperand fills a tensor with fixed-point values, of which about one
// in four is +0, −0 or a denormal of either sign. With inf, about one
// element in 32 is instead an infinity, so a product the kernel skips for a
// zero operand would show as a NaN.
func windowOperand(rng *splitmix, shape Shape, inf bool) *Tensor {
	specials := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff)}
	t := New(Float32, shape)
	v := t.Float32s()
	fill(rng, v, false)
	for i := range v {
		switch r := rng.next(); {
		case inf && r%32 == 0:
			v[i] = float32(math.Inf(1 - 2*int(r>>8&1)))
		case r%4 == 1:
			v[i] = specials[r>>8%uint64(len(specials))]
		}
	}
	return t
}

// TestWindowKernelsMatchReference holds the six convolution and pooling
// kernels, which walk their windows through Window, to the walks they
// replaced (window_ref_test.go), bit for bit over random geometries.
func TestWindowKernelsMatchReference(t *testing.T) {
	rng := splitmix(50)
	pick := func(lo, hi int) int { return lo + int(rng.next()%uint64(hi-lo+1)) }
	type result = func() (*Tensor, error)
	for n := 0; n < 2000; {
		batch, h, w, inC, outC := pick(1, 3), pick(1, 7), pick(1, 7), pick(1, 4), pick(1, 4)
		win := Window{pick(1, 4), pick(1, 4), pick(1, 3), pick(1, 3), ConvPadding(pick(0, 1))}
		out, err := win.OutShape(Shape{batch, h, w, inC}, outC)
		if err != nil {
			continue // the references assume a window that fits
		}
		n++
		in := windowOperand(&rng, Shape{batch, h, w, inC}, false)
		filter := windowOperand(&rng, Shape{win.KH, win.KW, inC, outC}, true)
		grad := windowOperand(&rng, out, false)
		pooled := Shape{batch, out[1], out[2], inC}
		poolGrad := windowOperand(&rng, pooled, false)
		kh, kw, sh, sw, pad := win.KH, win.KW, win.SH, win.SW, win.Pad
		for _, k := range []struct {
			name      string
			got, want result
		}{
			{"Conv2D",
				func() (*Tensor, error) { return Conv2D(New, in, filter, sh, sw, pad) },
				func() (*Tensor, error) { return refConv2D(New, in, filter, sh, sw, pad) }},
			{"Conv2DBackpropInput",
				func() (*Tensor, error) { return Conv2DBackpropInput(New, in.shape, filter, grad, sh, sw, pad) },
				func() (*Tensor, error) { return refConv2DBackpropInput(New, in.shape, filter, grad, sh, sw, pad) }},
			{"Conv2DBackpropFilter",
				func() (*Tensor, error) { return Conv2DBackpropFilter(New, in, filter.shape, grad, sh, sw, pad) },
				func() (*Tensor, error) { return refConv2DBackpropFilter(New, in, filter.shape, grad, sh, sw, pad) }},
			{"MaxPool",
				func() (*Tensor, error) { return MaxPool(New, in, kh, kw, sh, sw, pad) },
				func() (*Tensor, error) { return refMaxPool(New, in, kh, kw, sh, sw, pad) }},
			{"MaxPoolGrad",
				func() (*Tensor, error) { return MaxPoolGrad(New, in, poolGrad, kh, kw, sh, sw, pad) },
				func() (*Tensor, error) { return refMaxPoolGrad(New, in, poolGrad, kh, kw, sh, sw, pad) }},
			{"AvgPool",
				func() (*Tensor, error) { return AvgPool(New, in, kh, kw, sh, sw, pad) },
				func() (*Tensor, error) { return refAvgPool(New, in, kh, kw, sh, sw, pad) }},
		} {
			got, err := k.got()
			want, werr := k.want()
			if err != nil || werr != nil {
				t.Fatalf("%s, input %v, window %+v: %v (reference: %v)", k.name, in.shape, win, err, werr)
			}
			if !got.shape.Equal(want.shape) {
				t.Fatalf("%s, input %v, window %+v: shape %v, reference %v", k.name, in.shape, win, got.shape, want.shape)
			}
			if i := sameF32Bits(got.Float32s(), want.Float32s()); i >= 0 {
				t.Fatalf("%s, input %v, window %+v: element %d is %g (%#08x), reference %g (%#08x)", k.name, in.shape, win,
					i, got.Float32s()[i], math.Float32bits(got.Float32s()[i]), want.Float32s()[i], math.Float32bits(want.Float32s()[i]))
			}
		}
	}
}
