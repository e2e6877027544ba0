package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// fuse runs the fusion pass alone, through a pipeline.
func fuse(g *graph.Graph) (int, map[graph.Endpoint]graph.Endpoint, error) {
	res, err := (&graph.Pipeline{Passes: []graph.Pass{graph.FusePass()}}).Run(g)
	return res.Fused, res.Replaced, err
}

func placeholder(t *testing.T, g *graph.Graph, name string, shape tensor.Shape) *graph.Node {
	t.Helper()
	return mustAdd(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: name, Attrs: map[string]any{"dtype": tensor.Float32, "shape": shape},
	})
}

// denseChain builds Placeholder → MatMul → BiasAdd → Relu and returns the
// three chain nodes.
func denseChain(t *testing.T, g *graph.Graph) (mm, bias, relu *graph.Node) {
	t.Helper()
	x := placeholder(t, g, "x", tensor.Shape{2, 3})
	w := placeholder(t, g, "w", tensor.Shape{3, 4})
	b := placeholder(t, g, "b", tensor.Shape{4})
	mm = mustAdd(t, g, "MatMul", []graph.Endpoint{x.Out(0), w.Out(0)}, graph.NodeArgs{})
	bias = mustAdd(t, g, "BiasAdd", []graph.Endpoint{mm.Out(0), b.Out(0)}, graph.NodeArgs{})
	relu = mustAdd(t, g, "Relu", []graph.Endpoint{bias.Out(0)}, graph.NodeArgs{})
	return mm, bias, relu
}

func TestFuseMatMulBiasRelu(t *testing.T) {
	g := graph.New()
	mm, bias, relu := denseChain(t, g)
	gate := constOf(t, g, "gate", 1)
	g.AddControlEdge(gate, mm)
	out := mustAdd(t, g, "Neg", []graph.Endpoint{relu.Out(0)}, graph.NodeArgs{})

	n, replaced, err := fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Fuse applied %d rewrites, want 1", n)
	}
	fused := graph.Remap(replaced, relu.Out(0)).Node
	if fused.Op() != "FusedMatMul" {
		t.Fatalf("terminal remapped to %s, want FusedMatMul", fused.Op())
	}
	if fused.AttrString("activation", "") != "Relu" {
		t.Error("fused node lost the Relu activation")
	}
	if out.Input(0) != fused.Out(0) {
		t.Error("consumer not rewired onto the fused node")
	}
	if bias.Out(0).Shape().Rank() != 2 || !fused.Out(0).Shape().Equal(tensor.Shape{2, 4}) {
		t.Errorf("fused output shape = %v, want [2 4]", fused.Out(0).Shape())
	}
	// The chain's control input must move to the fused node.
	if cs := fused.ControlInputs(); len(cs) != 1 || cs[0] != gate {
		t.Errorf("fused control inputs = %v, want [gate]", cs)
	}
}

func TestFuseMatMulBiasWithoutRelu(t *testing.T) {
	g := graph.New()
	_, bias, relu := denseChain(t, g)
	// A second consumer of the BiasAdd output blocks folding the Relu in,
	// but the MatMul+BiasAdd pair still fuses (activation "").
	mustAdd(t, g, "Neg", []graph.Endpoint{bias.Out(0)}, graph.NodeArgs{})

	n, replaced, err := fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Fuse applied %d rewrites, want 1", n)
	}
	fused := graph.Remap(replaced, bias.Out(0)).Node
	if fused.Op() != "FusedMatMul" || fused.AttrString("activation", "x") != "" {
		t.Fatalf("got %s activation=%q, want FusedMatMul with no activation",
			fused.Op(), fused.AttrString("activation", "x"))
	}
	if relu.Input(0) != fused.Out(0) {
		t.Error("Relu not rewired onto the fused node")
	}
}

func TestFuseSkipsUnsafeChains(t *testing.T) {
	// Multi-consumer interior: the MatMul output is read elsewhere (as a
	// gradient would), so nothing may fuse.
	g := graph.New()
	mm, _, _ := denseChain(t, g)
	mustAdd(t, g, "Neg", []graph.Endpoint{mm.Out(0)}, graph.NodeArgs{})
	if n, _, _ := fuse(g); n != 0 {
		t.Errorf("fused %d chains with a multi-consumer interior, want 0", n)
	}

	// Cross-device chain.
	g = graph.New()
	_, bias, _ := denseChain(t, g)
	bias.SetDevice("/job:ps/task:0")
	if n, _, _ := fuse(g); n != 0 {
		t.Errorf("fused %d chains across devices, want 0", n)
	}

	// Inside a control-flow frame.
	g = graph.New()
	mm, bias, relu := denseChain(t, g)
	for _, n := range []*graph.Node{mm, bias, relu} {
		n.SetAttr(graph.FrameAttr, "while/loop")
	}
	if n, _, _ := fuse(g); n != 0 {
		t.Errorf("fused %d chains inside a frame, want 0", n)
	}
}

func TestFuseCrossEntropyChain(t *testing.T) {
	g := graph.New()
	logits := placeholder(t, g, "logits", tensor.Shape{8, 10})
	labels := placeholder(t, g, "labels", tensor.Shape{8, 10})
	sm := mustAdd(t, g, "Softmax", []graph.Endpoint{logits.Out(0)}, graph.NodeArgs{})
	lg := mustAdd(t, g, "Log", []graph.Endpoint{sm.Out(0)}, graph.NodeArgs{})
	mul := mustAdd(t, g, "Mul", []graph.Endpoint{labels.Out(0), lg.Out(0)}, graph.NodeArgs{})
	sum := mustAdd(t, g, "Sum", []graph.Endpoint{mul.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"reduction_indices": []int{1}},
	})
	neg := mustAdd(t, g, "Neg", []graph.Endpoint{sum.Out(0)}, graph.NodeArgs{})

	n, replaced, err := fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	// Log(Softmax) → LogSoftmax, then the whole loss → fused kernel.
	if n != 2 {
		t.Fatalf("Fuse applied %d rewrites, want 2", n)
	}
	fused := graph.Remap(replaced, neg.Out(0))
	if fused.Node.Op() != "SoftmaxCrossEntropyWithLogits" || fused.Index != 0 {
		t.Fatalf("loss remapped to %s:%d, want SoftmaxCrossEntropyWithLogits:0",
			fused.Node.Op(), fused.Index)
	}
	if fused.Node.Input(0) != logits.Out(0) || fused.Node.Input(1) != labels.Out(0) {
		t.Error("fused loss not wired to original logits/labels")
	}
}

func TestCSERehomesControlEdges(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := constOf(t, g, "b", 2)
	n1 := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	n2 := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	mustAdd(t, g, "AddN", []graph.Endpoint{n1.Out(0), n2.Out(0)}, graph.NodeArgs{})
	v := mustAdd(t, g, "Variable", nil, graph.NodeArgs{
		Name: "v", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	assign := mustAdd(t, g, "Assign", []graph.Endpoint{v.Out(0), a.Out(0)},
		graph.NodeArgs{Control: []*graph.Node{n2}})

	graph.CSE(g)
	if cs := assign.ControlInputs(); len(cs) != 1 || cs[0] != n1 {
		t.Fatalf("assign control inputs = %v, want rehomed onto the canonical Add", cs)
	}
}

// Regression: a foldable node that control-gates an Assign used to keep its
// stale control edge after folding, pinning the dead producer live (and
// with it the ordering constraint pointed at a node no step schedules).
// The edge must move onto the replacement Const, which also keeps the folded
// node's placement constraints.
func TestFoldConstantsRehomesControlEdges(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 3)
	b := constOf(t, g, "b", 4)
	add := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{
		Device: "/job:ps/task:1", Attrs: map[string]any{graph.ColocationAttr: []string{"v"}},
	})
	mustAdd(t, g, "Neg", []graph.Endpoint{add.Out(0)}, graph.NodeArgs{})
	v := mustAdd(t, g, "Variable", nil, graph.NodeArgs{
		Name: "v", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	assign := mustAdd(t, g, "Assign", []graph.Endpoint{v.Out(0), add.Out(0)},
		graph.NodeArgs{Control: []*graph.Node{add}})

	eval := func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if n.Op() != "Add" {
			return nil, fmt.Errorf("test evaluator only folds Add")
		}
		out, err := tensor.Binary(tensor.New, tensor.OpAdd, in[0], in[1])
		return []*tensor.Tensor{out}, err
	}
	_, replaced, err := graph.FoldConstants(g, eval)
	if err != nil {
		t.Fatal(err)
	}
	folded := graph.Remap(replaced, add.Out(0)).Node
	if folded.Op() != "Const" {
		t.Fatalf("Add folded to %s, want Const", folded.Op())
	}
	// The Const stands where the Add stood: an initializer colocated with
	// its variable must not drift to the default device by being folded.
	if folded.Device() != add.Device() || len(folded.Colocation()) != 1 || folded.Colocation()[0] != "v" {
		t.Errorf("folded Const placed by device %q, colocation %v; the Add had %q, %v",
			folded.Device(), folded.Colocation(), add.Device(), add.Colocation())
	}
	if assign.Input(1) != folded.Out(0) {
		t.Error("assign value input not rewired onto the folded Const")
	}
	if cs := assign.ControlInputs(); len(cs) != 1 || cs[0] != folded {
		t.Fatalf("assign control inputs = %v, want rehomed onto the folded Const", cs)
	}
	// With the edge rehomed, MarkDead may retire the folded Add.
	if n := graph.MarkDead(g, replaced); n < 1 {
		t.Errorf("MarkDead marked %d nodes, want at least the folded Add", n)
	}
	if !add.Dead() {
		t.Error("folded Add not marked dead")
	}
}

func TestPipelineRunsPassesInOrder(t *testing.T) {
	g := graph.New()
	// Foldable: Add(2,3); duplicated so CSE has work; a dense chain so the
	// fusion pass has work.
	a := constOf(t, g, "ca", 2)
	b := constOf(t, g, "cb", 3)
	s1 := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	_, _, relu := denseChain(t, g)
	scaled := mustAdd(t, g, "Mul", []graph.Endpoint{relu.Out(0), s1.Out(0)}, graph.NodeArgs{})

	eval := func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if n.Op() != "Add" {
			return nil, fmt.Errorf("test evaluator only folds Add")
		}
		out, err := tensor.Binary(tensor.New, tensor.OpAdd, in[0], in[1])
		return []*tensor.Tensor{out}, err
	}
	res, err := graph.NewPipeline(eval, graph.PipelineOptions{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 1 {
		t.Errorf("Folded = %d, want 1", res.Folded)
	}
	if res.Fused != 1 {
		t.Errorf("Fused = %d, want 1", res.Fused)
	}
	if res.Dead < 2 {
		t.Errorf("Dead = %d, want at least the folded Add and fused chain", res.Dead)
	}
	if graph.Remap(res.Replaced, relu.Out(0)).Node.Op() != "FusedMatMul" {
		t.Error("relu endpoint not remapped onto FusedMatMul")
	}
	if scaled.Input(1).Node.Op() != "Const" {
		t.Error("consumer of folded Add not rewired onto a Const")
	}

	// DisableFusion leaves the chain alone.
	g2 := graph.New()
	_, _, relu2 := denseChain(t, g2)
	res2, err := graph.NewPipeline(eval, graph.PipelineOptions{DisableFusion: true}).Run(g2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fused != 0 {
		t.Errorf("Fused = %d with fusion disabled, want 0", res2.Fused)
	}
	if graph.Remap(res2.Replaced, relu2.Out(0)) != relu2.Out(0) {
		t.Error("fusion-disabled pipeline still rewrote the chain")
	}
}
