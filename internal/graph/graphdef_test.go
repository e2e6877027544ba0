package graph_test

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// attrCases is every attribute type a GraphDef carries, with the Go value
// it comes back as: int32 and int64 as int, float32 as float64, a rank-0
// shape as a nil Shape.
func attrCases() []struct {
	name    string
	in, out any
} {
	nan64 := math.Float64frombits(0x7ff8000000000123)
	f32 := tensor.FromFloat32s(tensor.Shape{3}, []float32{math.Float32frombits(0x7fc12345), float32(math.Copysign(0, -1)), 1.5})
	str := tensor.FromStrings(tensor.Shape{2, 2}, []string{"", "\xff\x00 not utf-8", "a", "bc"})
	empty := tensor.New(tensor.Float64, tensor.Shape{0, 3})
	return []struct {
		name    string
		in, out any
	}{
		{"int", -7, -7},
		{"int32", int32(math.MinInt32), int(math.MinInt32)},
		{"int64", int64(math.MaxInt64), int(math.MaxInt64)},
		{"float32", float32(1.5), 1.5},
		{"float64", nan64, nan64},
		{"bool", true, true},
		{"string", "\xff\x00 not utf-8", "\xff\x00 not utf-8"},
		{"ints", []int{-1, 0, 1 << 40}, []int{-1, 0, 1 << 40}},
		{"strings", []string{"", "x"}, []string{"", "x"}},
		{"shape", tensor.Shape{-1, 3}, tensor.Shape{-1, 3}},
		{"scalar shape", tensor.Shape{}, tensor.Shape(nil)},
		{"dtype", tensor.String, tensor.String},
		{"tensor float32 NaN", f32, f32},
		{"tensor string", str, str},
		{"tensor empty", empty, empty},
		{"tensor scalar", tensor.ScalarInt(-3), tensor.ScalarInt(-3)},
		{"dtypes", []tensor.DType{tensor.Float32, tensor.Int64}, []tensor.DType{tensor.Float32, tensor.Int64}},
		{"shapes", []tensor.Shape{{2, -1}, {5}}, []tensor.Shape{{2, -1}, {5}}},
	}
}

// sameAttr compares two attribute values by type and bits: tensors by their
// encoding, floats by their bits.
func sameAttr(a, b any) bool {
	if ta, ok := a.(*tensor.Tensor); ok {
		tb, ok := b.(*tensor.Tensor)
		var ea, eb bytes.Buffer
		return ok && tb != nil && must(ta.WriteTo(&ea)) && must(tb.WriteTo(&eb)) && bytes.Equal(ea.Bytes(), eb.Bytes())
	}
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.DeepEqual(a, b)
}

func must(_ int64, err error) bool { return err == nil }

// attrGraph is one NoOp node holding every case of attrCases.
func attrGraph(t testing.TB) *graph.Graph {
	attrs := map[string]any{}
	for _, tc := range attrCases() {
		attrs[tc.name] = tc.in
	}
	g := graph.New()
	g.SetSeed(-5)
	if _, err := g.AddNode("NoOp", nil, graph.NodeArgs{Name: "holder", Attrs: attrs, Device: "/job:ps/task:1"}); err != nil {
		t.Fatal(err)
	}
	return g
}

// whileGraph is the smallest loop: Enter → Merge ⇄ NextIteration.
func whileGraph(t testing.TB) *graph.Graph {
	g := graph.New()
	c, err := g.AddNode("Const", nil, graph.NodeArgs{Name: "c", Attrs: map[string]any{"value": tensor.Scalar(0)}})
	if err != nil {
		t.Fatal(err)
	}
	add := func(op string, in graph.Endpoint, attrs map[string]any) *graph.Node {
		n, err := g.AddNode(op, []graph.Endpoint{in}, graph.NodeArgs{Attrs: attrs})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	merge := add("Merge", add("Enter", c.Out(0), map[string]any{"frame_name": "f"}).Out(0), nil)
	if err := g.AddBackEdge(merge, add("NextIteration", merge.Out(0), nil).Out(0)); err != nil {
		t.Fatal(err)
	}
	return g
}

func marshal(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAttrRoundTrip: every attribute type comes back through Marshal →
// Unmarshal as the Go value it is pinned to, bit for bit, and the decoded
// graph encodes to the same bytes; an attribute of any other type is an
// error that names the node and the attribute.
func TestAttrRoundTrip(t *testing.T) {
	data := marshal(t, attrGraph(t))
	back, err := graph.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	n := back.ByName("holder")
	if back.Seed() != -5 || n.Device() != "/job:ps/task:1" || len(n.AttrNames()) != len(attrCases()) {
		t.Fatalf("node came back as seed %d, device %q, attrs %v", back.Seed(), n.Device(), n.AttrNames())
	}
	for _, tc := range attrCases() {
		if got := n.Attr(tc.name); !sameAttr(got, tc.out) {
			t.Errorf("%s: %#v came back as %T %#v, want %T %#v", tc.name, tc.in, got, got, tc.out, tc.out)
		}
	}
	if again := marshal(t, back); !bytes.Equal(again, data) {
		t.Error("the decoded graph encodes to different bytes")
	}

	g := graph.New()
	if _, err := g.AddNode("NoOp", nil, graph.NodeArgs{Name: "odd", Attrs: map[string]any{"u8": uint8(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Marshal(); err == nil || !strings.Contains(err.Error(), "node odd attr u8") {
		t.Errorf("an uint8 attribute: %v; want an error naming the node and the attr", err)
	}
}

// FuzzGraphDef: Unmarshal errors or returns a graph whose encoding is a
// fixed point of Unmarshal → Marshal. The hostile seeds are the files under
// testdata/fuzz/FuzzGraphDef.
func FuzzGraphDef(f *testing.F) {
	f.Add(marshal(f, attrGraph(f)))
	f.Add(marshal(f, whileGraph(f)))
	parentGob, err := os.ReadFile("testdata/parent_gob.graphdef")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parentGob)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.Unmarshal(data)
		if err != nil {
			return
		}
		once := marshal(t, g)
		back, err := graph.Unmarshal(once)
		if err != nil {
			t.Fatalf("a decoded graph does not survive its own encoding: %v", err)
		}
		if twice := marshal(t, back); !bytes.Equal(once, twice) {
			t.Fatal("Marshal ∘ Unmarshal is not a fixed point on a decoded graph")
		}
	})
}
