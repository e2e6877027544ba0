package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvGeometry(t *testing.T) {
	cases := []struct {
		in, k, stride          int
		pad                    ConvPadding
		wantOut, wantPadBefore int
	}{
		{5, 3, 1, PaddingValid, 3, 0},
		{5, 3, 2, PaddingValid, 2, 0},
		{5, 3, 1, PaddingSame, 5, 1},
		{5, 3, 2, PaddingSame, 3, 1},
		{4, 2, 2, PaddingSame, 2, 0},
	}
	for _, c := range cases {
		out, pb := convGeometry(c.in, c.k, c.stride, c.pad)
		if out != c.wantOut || pb != c.wantPadBefore {
			t.Errorf("convGeometry(%d,%d,%d,%v) = (%d,%d), want (%d,%d)",
				c.in, c.k, c.stride, c.pad, out, pb, c.wantOut, c.wantPadBefore)
		}
	}
}

func TestParsePadding(t *testing.T) {
	if p, err := ParsePadding("SAME"); err != nil || p != PaddingSame {
		t.Error("SAME parse failed")
	}
	if p, err := ParsePadding("VALID"); err != nil || p != PaddingValid {
		t.Error("VALID parse failed")
	}
	if _, err := ParsePadding("weird"); err == nil {
		t.Error("bad padding accepted")
	}
	if PaddingSame.String() != "SAME" || PaddingValid.String() != "VALID" {
		t.Error("padding String() wrong")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 identity kernel must reproduce the input.
	rng := NewRNG(1)
	in := rng.Uniform(Float32, Shape{2, 4, 4, 3}, -1, 1)
	filter := New(Float32, Shape{1, 1, 3, 3})
	for c := 0; c < 3; c++ {
		filter.Float32s()[c*3+c] = 1
	}
	out, err := Conv2D(New, in, filter, 1, 1, PaddingValid)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(in, 1e-6, 1e-6) {
		t.Error("1x1 identity convolution changed the input")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 sum kernel, VALID: each output is the window sum.
	in := FromFloat32s(Shape{1, 3, 3, 1}, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	filter := FromFloat32s(Shape{2, 2, 1, 1}, []float32{1, 1, 1, 1})
	out, err := Conv2D(New, in, filter, 1, 1, PaddingValid)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 16, 24, 28}
	if !out.Shape().Equal(Shape{1, 2, 2, 1}) {
		t.Fatalf("shape = %v", out.Shape())
	}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("conv = %v, want %v", out.Float32s(), want)
		}
	}
	// SAME padding keeps the spatial extent.
	same, err := Conv2D(New, in, filter, 1, 1, PaddingSame)
	if err != nil || !same.Shape().Equal(Shape{1, 3, 3, 1}) {
		t.Fatalf("SAME conv shape = %v, %v", same.Shape(), err)
	}
}

func TestConv2DErrors(t *testing.T) {
	in := New(Float32, Shape{1, 3, 3, 2})
	if _, err := Conv2D(New, in, New(Float32, Shape{2, 2, 3, 1}), 1, 1, PaddingValid); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := Conv2D(New, in, New(Float32, Shape{2, 2, 2, 1}), 0, 1, PaddingValid); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := Conv2D(New, New(Float32, Shape{3, 3}), New(Float32, Shape{2, 2, 1, 1}), 1, 1, PaddingValid); err == nil {
		t.Error("rank-2 input accepted")
	}
	if _, err := Conv2D(New, in, New(Float32, Shape{5, 5, 2, 1}), 1, 1, PaddingValid); err == nil {
		t.Error("kernel larger than input accepted for VALID")
	}
}

// numericConvInputGrad computes dLoss/dInput numerically where
// Loss = sum(Conv2D(New, input, filter)).
func numericConvInputGrad(in, filter *Tensor, eps float32) []float32 {
	grad := make([]float32, in.NumElements())
	for i := range grad {
		orig := in.Float32s()[i]
		in.Float32s()[i] = orig + eps
		up, _ := Conv2D(New, in, filter, 1, 1, PaddingValid)
		upSum, _ := Reduce(New, ReduceSum, up, nil, false)
		in.Float32s()[i] = orig - eps
		dn, _ := Conv2D(New, in, filter, 1, 1, PaddingValid)
		dnSum, _ := Reduce(New, ReduceSum, dn, nil, false)
		in.Float32s()[i] = orig
		grad[i] = float32((upSum.FloatAt(0) - dnSum.FloatAt(0)) / float64(2*eps))
	}
	return grad
}

func TestConv2DBackpropInputMatchesNumeric(t *testing.T) {
	rng := NewRNG(2)
	in := rng.Uniform(Float32, Shape{1, 4, 4, 2}, -1, 1)
	filter := rng.Uniform(Float32, Shape{3, 3, 2, 2}, -1, 1)
	out, err := Conv2D(New, in, filter, 1, 1, PaddingValid)
	if err != nil {
		t.Fatal(err)
	}
	ones := Fill(New, Float32, out.Shape(), 1)
	analytic, err := Conv2DBackpropInput(New, in.Shape(), filter, ones, 1, 1, PaddingValid)
	if err != nil {
		t.Fatal(err)
	}
	numeric := numericConvInputGrad(in, filter, 1e-2)
	for i, want := range numeric {
		got := analytic.Float32s()[i]
		if math.Abs(float64(got-want)) > 5e-2 {
			t.Fatalf("input grad[%d] = %g, numeric %g", i, got, want)
		}
	}
}

func TestConv2DBackpropFilterMatchesNumeric(t *testing.T) {
	rng := NewRNG(3)
	in := rng.Uniform(Float32, Shape{1, 4, 4, 1}, -1, 1)
	filter := rng.Uniform(Float32, Shape{2, 2, 1, 2}, -1, 1)
	out, _ := Conv2D(New, in, filter, 1, 1, PaddingValid)
	ones := Fill(New, Float32, out.Shape(), 1)
	analytic, err := Conv2DBackpropFilter(New, in, filter.Shape(), ones, 1, 1, PaddingValid)
	if err != nil {
		t.Fatal(err)
	}
	eps := float32(1e-2)
	for i := 0; i < filter.NumElements(); i++ {
		orig := filter.Float32s()[i]
		filter.Float32s()[i] = orig + eps
		up, _ := Conv2D(New, in, filter, 1, 1, PaddingValid)
		upSum, _ := Reduce(New, ReduceSum, up, nil, false)
		filter.Float32s()[i] = orig - eps
		dn, _ := Conv2D(New, in, filter, 1, 1, PaddingValid)
		dnSum, _ := Reduce(New, ReduceSum, dn, nil, false)
		filter.Float32s()[i] = orig
		want := (upSum.FloatAt(0) - dnSum.FloatAt(0)) / float64(2*eps)
		got := float64(analytic.Float32s()[i])
		if math.Abs(got-want) > 5e-2 {
			t.Fatalf("filter grad[%d] = %g, numeric %g", i, got, want)
		}
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	in := FromFloat32s(Shape{1, 4, 4, 1}, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out, err := MaxPool(New, in, 2, 2, 2, 2, PaddingValid)
	if err != nil || !out.Shape().Equal(Shape{1, 2, 2, 1}) {
		t.Fatalf("MaxPool = %v, %v", out, err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("MaxPool data = %v", out.Float32s())
		}
	}
}

func TestMaxPoolGradRoutesToArgmax(t *testing.T) {
	in := FromFloat32s(Shape{1, 2, 2, 1}, []float32{1, 5, 3, 2})
	g := FromFloat32s(Shape{1, 1, 1, 1}, []float32{10})
	grad, err := MaxPoolGrad(New, in, g, 2, 2, 2, 2, PaddingValid)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 10, 0, 0}
	for i, v := range grad.Float32s() {
		if v != want[i] {
			t.Fatalf("MaxPoolGrad = %v", grad.Float32s())
		}
	}
}

func TestMaxPoolGradConservesGradientProperty(t *testing.T) {
	// Property: with non-overlapping windows, the total routed gradient
	// equals the total incoming gradient.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		in := rng.Uniform(Float32, Shape{1, 4, 4, 2}, -5, 5)
		out, err := MaxPool(New, in, 2, 2, 2, 2, PaddingValid)
		if err != nil {
			return false
		}
		g := rng.Uniform(Float32, out.Shape(), 0, 1)
		grad, err := MaxPoolGrad(New, in, g, 2, 2, 2, 2, PaddingValid)
		if err != nil {
			return false
		}
		gSum, _ := Reduce(New, ReduceSum, g, nil, false)
		gradSum, _ := Reduce(New, ReduceSum, grad, nil, false)
		return math.Abs(gSum.FloatAt(0)-gradSum.FloatAt(0)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAvgPool(t *testing.T) {
	in := FromFloat32s(Shape{1, 2, 2, 1}, []float32{1, 2, 3, 4})
	out, err := AvgPool(New, in, 2, 2, 2, 2, PaddingValid)
	if err != nil || out.Float32s()[0] != 2.5 {
		t.Fatalf("AvgPool = %v, %v", out, err)
	}
}

func TestConv2DStride2ShapeAndValues(t *testing.T) {
	in := FromFloat32s(Shape{1, 4, 4, 1}, []float32{
		1, 0, 2, 0,
		0, 0, 0, 0,
		3, 0, 4, 0,
		0, 0, 0, 0,
	})
	filter := FromFloat32s(Shape{1, 1, 1, 1}, []float32{2})
	out, err := Conv2D(New, in, filter, 2, 2, PaddingValid)
	if err != nil || !out.Shape().Equal(Shape{1, 2, 2, 1}) {
		t.Fatalf("stride-2 conv = %v, %v", out, err)
	}
	want := []float32{2, 4, 6, 8}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("stride-2 data = %v", out.Float32s())
		}
	}
}
