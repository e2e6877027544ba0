package graph_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	_ "repro/internal/ops" // register op definitions
	"repro/internal/tensor"
)

func mustAdd(t *testing.T, g *graph.Graph, op string, ins []graph.Endpoint, args graph.NodeArgs) *graph.Node {
	t.Helper()
	n, err := g.AddNode(op, ins, args)
	if err != nil {
		t.Fatalf("AddNode(%s): %v", op, err)
	}
	return n
}

func constOf(t *testing.T, g *graph.Graph, name string, v float32) *graph.Node {
	t.Helper()
	return mustAdd(t, g, "Const", nil, graph.NodeArgs{
		Name: name, Attrs: map[string]any{"value": tensor.Scalar(v)},
	})
}

func TestRegistryBreadth(t *testing.T) {
	// §5: the runtime contains a substantial standard op library.
	ops := graph.RegisteredOps()
	if len(ops) < 90 {
		t.Errorf("registry has %d ops; expected a broad standard library", len(ops))
	}
	for _, required := range []string{
		"Const", "Variable", "Assign", "MatMul", "Conv2D", "Switch",
		"Merge", "Enter", "Exit", "NextIteration", "Send", "Recv",
		"FIFOQueue", "Save", "Restore", "Gather", "DynamicPartition",
		"DynamicStitch",
	} {
		found := false
		for _, op := range ops {
			if op == required {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("required op %s missing from registry", required)
		}
	}
}

func TestAddNodeValidation(t *testing.T) {
	g := graph.New()
	if _, err := g.AddNode("NoSuchOp", nil, graph.NodeArgs{}); err == nil {
		t.Error("unknown op accepted")
	}
	a := constOf(t, g, "a", 1)
	// Arity check.
	if _, err := g.AddNode("Neg", nil, graph.NodeArgs{}); err == nil {
		t.Error("missing input accepted")
	}
	// Bad output index.
	if _, err := g.AddNode("Neg", []graph.Endpoint{{Node: a, Index: 5}}, graph.NodeArgs{}); err == nil {
		t.Error("out-of-range output index accepted")
	}
	// Cross-graph input.
	g2 := graph.New()
	if _, err := g2.AddNode("Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{}); err == nil {
		t.Error("cross-graph input accepted")
	}
	// Shape inference failure surfaces as an error.
	b := mustAdd(t, g, "Const", nil, graph.NodeArgs{
		Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{3}, []float32{1, 2, 3})},
	})
	if _, err := g.AddNode("MatMul", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{}); err == nil {
		t.Error("rank-0 matmul accepted")
	}
}

func TestNameUniquification(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "x", 1)
	b := constOf(t, g, "x", 2)
	if a.Name() == b.Name() {
		t.Errorf("duplicate names: %s vs %s", a.Name(), b.Name())
	}
	if g.ByName(a.Name()) != a || g.ByName(b.Name()) != b {
		t.Error("ByName lookup broken")
	}
}

func TestTopoSortOrdersDataAndControl(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "b"})
	c := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "c", Control: []*graph.Node{b}})
	order, err := graph.TopoSort(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name()] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Errorf("order %v violates dependencies", pos)
	}
	_ = c
}

func TestPruneFollowsOnlyNeededPaths(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "b"})
	unrelated := constOf(t, g, "unrelated", 9)
	deadEnd := mustAdd(t, g, "Neg", []graph.Endpoint{unrelated.Out(0)}, graph.NodeArgs{Name: "deadend"})

	set, err := graph.Prune(g, nil, []graph.Endpoint{b.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Contains(a) || !set.Contains(b) {
		t.Error("needed nodes pruned")
	}
	if set.Contains(unrelated) || set.Contains(deadEnd) {
		t.Error("unneeded nodes kept")
	}
	// Feeding b's input cuts a out of the subgraph.
	set, err = graph.Prune(g, []graph.Endpoint{a.Out(0)}, []graph.Endpoint{b.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Contains(a) {
		t.Error("fed producer should be pruned")
	}
}

func TestCSEMergesOnlyEquivalentNodes(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := constOf(t, g, "b", 2)
	n1 := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	n2 := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	n3 := mustAdd(t, g, "Add", []graph.Endpoint{b.Out(0), a.Out(0)}, graph.NodeArgs{}) // different input order
	consumer := mustAdd(t, g, "AddN", []graph.Endpoint{n1.Out(0), n2.Out(0), n3.Out(0)}, graph.NodeArgs{})

	replaced := graph.CSE(g)
	if len(replaced) != 1 {
		t.Fatalf("CSE replaced %d endpoints, want 1", len(replaced))
	}
	if consumer.Input(1) != n1.Out(0) {
		t.Error("consumer not rewired to the canonical node")
	}
	if consumer.Input(2) != n3.Out(0) {
		t.Error("non-equivalent node was merged")
	}
	// Stateful ops must never merge.
	g2 := graph.New()
	mustAdd(t, g2, "Variable", nil, graph.NodeArgs{Name: "v1", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{1}}})
	mustAdd(t, g2, "Variable", nil, graph.NodeArgs{Name: "v2", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{1}}})
	if len(graph.CSE(g2)) != 0 {
		t.Error("CSE merged stateful nodes")
	}
}

func TestControlEdgesAndBackEdges(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{})
	g.AddControlEdge(a, b)
	g.AddControlEdge(a, b) // idempotent
	if len(b.ControlInputs()) != 1 {
		t.Errorf("control inputs = %d, want 1 (deduplicated)", len(b.ControlInputs()))
	}
	// Back edges only connect NextIteration to Merge.
	if err := g.AddBackEdge(b, a.Out(0)); err == nil {
		t.Error("back edge to non-Merge accepted")
	}
}

func TestAttrAccessors(t *testing.T) {
	g := graph.New()
	n := mustAdd(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{
		"value": tensor.Scalar(1),
		"i":     7,
		"f":     1.5,
		"b":     true,
		"s":     "hello",
		"ints":  []int{1, 2},
		"shape": tensor.Shape{2, 3},
		"dt":    tensor.Int64,
	}})
	if n.AttrInt("i", 0) != 7 || n.AttrInt("missing", 9) != 9 {
		t.Error("AttrInt wrong")
	}
	if n.AttrFloat("f", 0) != 1.5 || !n.AttrBool("b", false) || n.AttrString("s", "") != "hello" {
		t.Error("scalar attr accessors wrong")
	}
	if ints, ok := n.AttrInts("ints"); !ok || len(ints) != 2 {
		t.Error("AttrInts wrong")
	}
	if s, ok := n.AttrShape("shape"); !ok || !s.Equal(tensor.Shape{2, 3}) {
		t.Error("AttrShape wrong")
	}
	if n.AttrDType("dt", tensor.Float32) != tensor.Int64 {
		t.Error("AttrDType wrong")
	}
	names := n.AttrNames()
	if len(names) != 8 || !strings.Contains(strings.Join(names, ","), "value") {
		t.Errorf("AttrNames = %v", names)
	}
}

// TestParseEndpoint pins the one "name:index" parser: last-colon split, plain
// decimal index inside the node's outputs, a bare name meaning output 0.
func TestParseEndpoint(t *testing.T) {
	g := graph.New()
	c := constOf(t, g, "scope/c", 1)
	sw := mustAdd(t, g, "Switch", []graph.Endpoint{c.Out(0), mustAdd(t, g, "Const", nil, graph.NodeArgs{
		Name: "p", Attrs: map[string]any{"value": tensor.ScalarBool(true)},
	}).Out(0)}, graph.NodeArgs{Name: "sw"})
	for ref, want := range map[string]graph.Endpoint{
		"scope/c:0": c.Out(0), "scope/c": c.Out(0), "sw:1": sw.Out(1), "sw:01": sw.Out(1),
	} {
		if got, err := g.ParseEndpoint(ref); err != nil || got != want {
			t.Errorf("ParseEndpoint(%q) = %v, %v; want %v", ref, got, err, want)
		}
	}
	for _, ref := range []string{
		"", ":0", "nosuch", "nosuch:0", "sw:2", "scope/c:1", "sw:", "sw:-1", "sw:+1", "sw:0junk", "sw:0 ", "sw: 0",
		"sw:0x1", "sw:1_0", "sw:99999999999999999999", "sw:1:", "sw::1",
	} {
		if got, err := g.ParseEndpoint(ref); err == nil {
			t.Errorf("ParseEndpoint(%q) = %v, want an error", ref, got)
		}
	}
	// A serialized graph is held to the same rule: an input ref past its
	// producer's outputs is an Unmarshal error, not a node wired to nothing.
	def, err := g.ToDef()
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Nodes {
		if def.Nodes[i].Name == "sw" {
			def.Nodes[i].Inputs[0] = "scope/c:3"
		}
	}
	if _, err := graph.FromDef(def); err == nil || !strings.Contains(err.Error(), "scope/c:3") {
		t.Errorf("FromDef with an out-of-range input ref: %v", err)
	}
}

// TestGraphDefRejectsCorruptInput: a While graph's back edge survives the
// round trip; corrupt bytes, a back edge to a node that is not there, a gob
// GraphDef (testdata/parent_gob.graphdef, the format before this one) and
// every truncation are errors.
func TestGraphDefRejectsCorruptInput(t *testing.T) {
	g := whileGraph(t)
	data := marshal(t, g)
	back, err := graph.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2 := back.ByName("Merge"); m2 == nil || m2.NumInputs() != 2 {
		t.Fatalf("back edge lost in round trip: %v", m2)
	}
	parentGob, err := os.ReadFile("testdata/parent_gob.graphdef")
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"garbage":            {[]byte("not a graph"), `not "TFGOGDF1"`},
		"gob GraphDef":       {parentGob, `not "TFGOGDF1"`},
		"a byte too many":    {append(data[:len(data):len(data)], 0), "1 bytes trail"},
		"dangling back edge": {bytes.Replace(data, []byte("NextIteration:0"), []byte("NextIteratioX:0"), 1), "back edge of node Merge"},
	} {
		if _, err := graph.Unmarshal(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v; want an error mentioning %q", name, err, tc.want)
		}
	}
	for cut := range data {
		if _, err := graph.Unmarshal(data[:cut]); err == nil {
			t.Fatalf("%d of %d bytes decoded without error", cut, len(data))
		}
	}
}
