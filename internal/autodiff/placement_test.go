package autodiff

import (
	"testing"

	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Gradient nodes are emitted beside the forward node they differentiate
// (§3.3: placement is the routing step — a backward pass that lands on the
// default device drags every activation there).

const (
	devPS = "/job:ps/task:0"
	devA  = "/job:worker/task:0"
	devB  = "/job:worker/task:1"
)

func weight(b *build.B, name string, shape tensor.Shape) graph.Endpoint {
	ps := b.WithDevice(devPS)
	return ps.Read(ps.Variable(name, tensor.Float32, shape).Out(0))
}

func TestGradientNodesInheritPlacementPerNode(t *testing.T) {
	g := graph.New()
	b := build.New(g)
	x := b.Node("Placeholder", nil, "x", map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{4, 3}}).Out(0)
	w1, w2 := weight(b, "w1", tensor.Shape{3, 5}), weight(b, "w2", tensor.Shape{5, 2})
	// A model-parallel pair of layers: the first on task A, hinted next to an
	// anchor node, the second on task B; the loss is left unconstrained.
	anchor := b.WithDevice(devA).Const(tensor.Scalar(0)).Node
	la := b.WithDevice(devA).ColocateWith(anchor)
	h := la.Op1("Tanh", la.MatMul(x, w1, false, false))
	y := b.WithDevice(devB).MatMul(h, w2, false, false)
	loss := b.Sum(y, nil, false)
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	forward := g.NumNodes()
	grads, err := Gradients(g, []graph.Endpoint{loss}, []graph.Endpoint{w1, w2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if d := grads[0].Dense.Node; d.Op() != "MatMul" || d.Device() != devA || len(d.Colocation()) != 1 || d.Colocation()[0] != anchor.Name() {
		t.Errorf("∂loss/∂w1 = %s on %q, colocation %v; want a MatMul beside layer 1 (%s, [%s])", d.Op(), d.Device(), d.Colocation(), devA, anchor.Name())
	}
	if d := grads[1].Dense.Node; d.Op() != "MatMul" || d.Device() != devB || len(d.Colocation()) != 0 {
		t.Errorf("∂loss/∂w2 = %s on %q, colocation %v; want a MatMul beside layer 2 (%s, no hints)", d.Op(), d.Device(), d.Colocation(), devB)
	}
	// Every backward node sits with one of the three forward placements, and
	// none went to a parameter server.
	perOp := map[string]string{"OnesLike": "", "TanhGrad": devA}
	counts := map[string]int{}
	for _, n := range g.Nodes()[forward:] {
		counts[n.Device()]++
		if want, ok := perOp[n.Op()]; ok && n.Device() != want {
			t.Errorf("%s (%s) carries device %q, want %q", n.Name(), n.Op(), n.Device(), want)
		}
		if n.Device() == devPS {
			t.Errorf("%s (%s) is constrained to the parameter server", n.Name(), n.Op())
		}
	}
	if counts[devA] == 0 || counts[devB] == 0 || counts[""] == 0 {
		t.Errorf("gradient nodes per device constraint = %v; want some beside each layer and the seed beside the unconstrained loss", counts)
	}
}

func TestGradientSumGoesWithItsContributions(t *testing.T) {
	g := graph.New()
	b := build.New(g)
	x := b.Node("Placeholder", nil, "x", map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{4, 3}}).Out(0)
	w := weight(b, "tied", tensor.Shape{3, 3})
	// The weight is read on the PS and used by two layers on worker A: its
	// partials must be added where they were computed, so one tensor
	// leaves the worker instead of two.
	wa := b.WithDevice(devA)
	h := wa.MatMul(wa.MatMul(x, w, false, false), w, false, false)
	// A third use on worker B contributes last; the sum stays with the first.
	y := b.Add(h, b.WithDevice(devB).MatMul(x, w, false, false))
	loss := b.Sum(y, nil, false)
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	grads, err := Gradients(g, []graph.Endpoint{loss}, []graph.Endpoint{w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := grads[0].Dense.Node
	if sum.Op() != "AddN" || sum.NumInputs() != 3 {
		t.Fatalf("∂loss/∂tied = %s with %d inputs, want an AddN of three partials", sum.Op(), sum.NumInputs())
	}
	if first := sum.Input(0).Node; sum.Device() != first.Device() || sum.Device() == devPS || sum.Device() == "" {
		t.Errorf("the sum carries device %q; its first contribution %s carries %q (the weight's Read: %s)",
			sum.Device(), first.Name(), first.Device(), devPS)
	}
	onA := 0
	for _, in := range sum.Inputs() {
		if in.Node.Device() == devA {
			onA++
		}
	}
	if onA != 2 {
		t.Errorf("%d of the partials are on %s, want the two layers that ran there", onA, devA)
	}
}
