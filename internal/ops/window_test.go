package ops_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// windowDef is a graph of one op node, "win", over one Placeholder per input
// spec: what a peer registers or a model directory holds.
func windowDef(op string, attrs map[string]any, inputs ...graph.IOSpec) *graph.GraphDef {
	def := &graph.GraphDef{}
	var names []string
	for i, in := range inputs {
		name := fmt.Sprintf("in%d", i)
		def.Nodes = append(def.Nodes, graph.NodeDef{Name: name, Op: "Placeholder",
			Attrs: map[string]any{"dtype": in.DType, "shape": in.Shape}})
		names = append(names, name+":0")
	}
	def.Nodes = append(def.Nodes, graph.NodeDef{Name: "win", Op: op, Inputs: names, Attrs: attrs})
	return def
}

// runWindow decodes def through graph.FromDef, as RegisterGraph and a model
// load do, and runs node win on feeds. atDecode reports that FromDef failed.
func runWindow(def *graph.GraphDef, feeds []*tensor.Tensor) (out *tensor.Tensor, spec graph.IOSpec, atDecode bool, err error) {
	g, err := graph.FromDef(def)
	if err != nil {
		return nil, spec, true, err
	}
	win := g.ByName("win").Out(0)
	eps := make([]graph.Endpoint, len(feeds))
	for i := range eps {
		eps[i] = g.ByName(fmt.Sprintf("in%d", i)).Out(0)
	}
	ex, err := exec.Compile(g, eps, []graph.Endpoint{win}, nil, "CPU")
	if err != nil {
		return nil, win.Spec(), false, err
	}
	defer ex.Close()
	outs, err := ex.Run(exec.RunParams{FeedValues: feeds})
	if err != nil {
		return nil, win.Spec(), false, err
	}
	return outs[0], win.Spec(), false, nil
}

func poolWindow(ksize, strides []int, padding string) map[string]any {
	return map[string]any{"ksize": ksize, "strides": strides, "padding": padding}
}

func convStrides(strides []int) map[string]any {
	return map[string]any{"strides": strides, "padding": "VALID"}
}

// specs declares each feed's own shape.
func specs(feeds []*tensor.Tensor) []graph.IOSpec {
	s := make([]graph.IOSpec, len(feeds))
	for i, t := range feeds {
		s[i] = graph.IOSpec{DType: t.DType(), Shape: t.Shape()}
	}
	return s
}

// TestHostileWindows: a window attribute or a fed shape that no convolution
// or pool can use is an error naming the node, never a panic. What the
// attributes alone decide fails where a registered graph or a loaded model is
// decoded; what depends on a fed value fails in the step.
func TestHostileWindows(t *testing.T) {
	f32 := func(dims ...int) *tensor.Tensor { return tensor.New(tensor.Float32, dims) }
	i32 := func(v ...int32) *tensor.Tensor { return tensor.FromInt32s(tensor.Shape{len(v)}, v) }
	img, filter := f32(1, 4, 4, 1), f32(2, 2, 1, 1)
	for _, c := range []struct {
		name     string
		op       string
		attrs    map[string]any
		feeds    []*tensor.Tensor
		atDecode bool
	}{
		{"MaxPool strides [0,0]", "MaxPool", poolWindow([]int{2, 2}, []int{0, 0}, "VALID"), []*tensor.Tensor{img}, true},
		{"MaxPool strides [0,1]", "MaxPool", poolWindow([]int{2, 2}, []int{0, 1}, "SAME"), []*tensor.Tensor{img}, true},
		{"AvgPool strides [0,0]", "AvgPool", poolWindow([]int{2, 2}, []int{0, 0}, "VALID"), []*tensor.Tensor{img}, true},
		{"AvgPool strides [0,1]", "AvgPool", poolWindow([]int{2, 2}, []int{0, 1}, "SAME"), []*tensor.Tensor{img}, true},
		{"Conv2D strides [0,1]", "Conv2D", convStrides([]int{0, 1}), []*tensor.Tensor{img, filter}, true},
		{"MaxPool strides [-1,1]", "MaxPool", poolWindow([]int{2, 2}, []int{-1, 1}, "SAME"), []*tensor.Tensor{img}, true},
		{"MaxPool ksize [0,0]", "MaxPool", poolWindow([]int{0, 0}, []int{1, 1}, "VALID"), []*tensor.Tensor{img}, true},
		{"AvgPool ksize [-3,2]", "AvgPool", poolWindow([]int{-3, 2}, []int{1, 1}, "SAME"), []*tensor.Tensor{img}, true},
		{"MaxPool 8x8 VALID over 4x4", "MaxPool", poolWindow([]int{8, 8}, []int{1, 1}, "VALID"), []*tensor.Tensor{img}, true},
		{"AvgPool over a rank-2 input", "AvgPool", poolWindow([]int{2, 2}, []int{1, 1}, "VALID"), []*tensor.Tensor{f32(4, 4)}, true},
		{"Conv2DBackpropInput input_sizes channels differ from the filter's", "Conv2DBackpropInput",
			convStrides([]int{1, 1}), []*tensor.Tensor{i32(1, 4, 4, 2), filter, f32(1, 3, 3, 1)}, false},
		{"Conv2DBackpropInput negative input_sizes", "Conv2DBackpropInput",
			convStrides([]int{1, 1}), []*tensor.Tensor{i32(-1, 4, 4, 1), filter, f32(1, 3, 3, 1)}, false},
		{"Conv2DBackpropInput float input_sizes", "Conv2DBackpropInput",
			convStrides([]int{1, 1}), []*tensor.Tensor{tensor.FromFloat32s(tensor.Shape{4}, []float32{1, 4, 4, 1}), filter, f32(1, 3, 3, 1)}, false},
		{"Conv2DBackpropInput gradient batch differs from the input's", "Conv2DBackpropInput",
			convStrides([]int{1, 1}), []*tensor.Tensor{i32(1, 4, 4, 1), filter, f32(2, 3, 3, 1)}, false},
		{"MaxPoolGrad gradient batch differs from the input's", "MaxPoolGrad",
			poolWindow([]int{2, 2}, []int{2, 2}, "VALID"), []*tensor.Tensor{img, f32(2, 2, 2, 1)}, false},
		{"Conv2DBackpropFilter filter_sizes channels differ from the input's", "Conv2DBackpropFilter",
			convStrides([]int{1, 1}), []*tensor.Tensor{img, i32(2, 2, 3, 1), f32(1, 3, 3, 1)}, false},
	} {
		out, _, atDecode, err := runWindow(windowDef(c.op, c.attrs, specs(c.feeds)...), c.feeds)
		switch {
		case err == nil:
			t.Errorf("%s: ran and gave %v, want an error", c.name, out.Shape())
		case !strings.Contains(err.Error(), "win"):
			t.Errorf("%s: error %q does not name the node", c.name, err)
		case atDecode != c.atDecode:
			t.Errorf("%s: failed at decode = %v, want %v: %v", c.name, atDecode, c.atDecode, err)
		}
	}

	// A filter whose height and width are not known yet leaves the output's
	// unknown.
	def := windowDef("Conv2D", convStrides([]int{1, 1}),
		graph.IOSpec{DType: tensor.Float32, Shape: tensor.Shape{-1, 5, 5, 1}},
		graph.IOSpec{DType: tensor.Float32, Shape: tensor.Shape{-1, -1, 1, 1}})
	g, err := graph.FromDef(def)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.ByName("win").Out(0).Spec().Shape, (tensor.Shape{-1, -1, -1, 1}); !got.Equal(want) {
		t.Errorf("Conv2D over [?,5,5,1] by [?,?,1,1] infers %v, want %v", got, want)
	}
}

// FuzzWindow runs a MaxPool, AvgPool or Conv2D with a fuzzed input shape,
// window, strides and padding, decoded through graph.FromDef and fed a
// tensor. It must give an error, or an output of the shape Window.OutShape
// gives; never a panic. With exact false the Placeholders declare no
// spatial dims, so only the kernel can refuse the window.
func FuzzWindow(f *testing.F) {
	// The rows of TestHostileWindows, and a few that work.
	for _, s := range []struct {
		op               uint8
		b, h, w, c, outC uint8
		kh, kw, sh, sw   int
		same, exact      bool
	}{
		{0, 1, 4, 4, 1, 1, 2, 2, 0, 0, false, true},
		{0, 1, 4, 4, 1, 1, 2, 2, 0, 1, true, true},
		{1, 1, 4, 4, 1, 1, 2, 2, 0, 0, false, true},
		{1, 1, 4, 4, 1, 1, 2, 2, 0, 1, true, false},
		{2, 1, 4, 4, 1, 1, 2, 2, 0, 1, false, true},
		{0, 1, 4, 4, 1, 1, 2, 2, -1, 1, true, true},
		{0, 1, 4, 4, 1, 1, 0, 0, 1, 1, false, true},
		{1, 1, 4, 4, 1, 1, -3, 2, 1, 1, true, true},
		{0, 1, 4, 4, 1, 1, 8, 8, 1, 1, false, false},
		{2, 2, 5, 6, 3, 2, 3, 2, 2, 1, true, true},
		{1, 3, 7, 7, 2, 2, 3, 3, 2, 2, false, false},
		{0, 2, 1, 3, 4, 4, 4, 4, 3, 1, true, true},
	} {
		f.Add(s.op, s.b, s.h, s.w, s.c, s.outC, s.kh, s.kw, s.sh, s.sw, s.same, s.exact)
	}
	f.Fuzz(func(t *testing.T, op, b, h, w, c, outC uint8, kh, kw, sh, sw int, same, exact bool) {
		in := tensor.New(tensor.Float32, tensor.Shape{int(b % 4), int(h % 9), int(w % 9), int(c % 5)})
		win := tensor.Window{KH: kh, KW: kw, SH: sh, SW: sw, Pad: tensor.PaddingValid}
		padding := "VALID"
		if same {
			win.Pad, padding = tensor.PaddingSame, "SAME"
		}
		var def *graph.GraphDef
		feeds := []*tensor.Tensor{in}
		declare := specs(feeds)
		if !exact {
			declare[0].Shape = tensor.Shape{-1, -1, -1, -1}
		}
		wantC := in.Shape()[3]
		switch op % 3 {
		case 0, 1:
			def = windowDef([]string{"MaxPool", "AvgPool"}[op%3], poolWindow([]int{kh, kw}, []int{sh, sw}, padding), declare...)
		case 2:
			// The filter is a real tensor, so its dims stay small.
			win.KH, win.KW, wantC = int(uint(kh)%6), int(uint(kw)%6), int(outC%5)
			filter := tensor.New(tensor.Float32, tensor.Shape{win.KH, win.KW, int(c % 5), wantC})
			feeds = append(feeds, filter)
			declare = append(declare, graph.IOSpec{DType: tensor.Float32, Shape: filter.Shape()})
			def = windowDef("Conv2D", map[string]any{"strides": []int{sh, sw}, "padding": padding}, declare...)
		}
		out, spec, _, err := runWindow(def, feeds)
		if err != nil {
			return
		}
		want, werr := win.OutShape(in.Shape(), wantC)
		if werr != nil || !out.Shape().Equal(want) {
			t.Fatalf("%s of %v by %+v gave %v; Window.OutShape: %v, %v", def.Nodes[len(def.Nodes)-1].Op, in.Shape(), win, out.Shape(), want, werr)
		}
		if !spec.Shape.Compatible(want) {
			t.Fatalf("%s of %v by %+v: inferred %v, ran %v", def.Nodes[len(def.Nodes)-1].Op, in.Shape(), win, spec.Shape, want)
		}
	})
}
