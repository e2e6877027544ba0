package tf_test

import (
	"strings"
	"testing"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/tf"
)

func TestWithDeviceStampsNodes(t *testing.T) {
	g := tf.NewGraph()
	ps := g.WithDevice("/job:ps")
	c := ps.WithDevice("/task:1").Const(float32(1))
	g.Must()
	if got := c.Op().Node().Device(); got != "/job:ps/task:1" {
		t.Errorf("node device = %q, want /job:ps/task:1", got)
	}
	// The root view stays unconstrained.
	if g.Device() != "" {
		t.Errorf("root device = %q", g.Device())
	}
	free := g.Const(float32(2))
	if got := free.Op().Node().Device(); got != "" {
		t.Errorf("unscoped node device = %q", got)
	}
}

func TestScopedViewsShareGraphState(t *testing.T) {
	g := tf.NewGraph()
	// A variable declared under a device scope registers its initializer
	// with the shared graph state, so the root InitOp runs it.
	v := g.WithDevice("/job:ps/task:0").NewVariableFromTensor("v", tf.Scalar(41))
	sess := newSession(t, g)
	defer sess.Close()
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	if out.FloatAt(0) != 41 {
		t.Errorf("v = %v, want 41", out.FloatAt(0))
	}
	// Error state is shared too: a failure under one view breaks them all.
	g.WithDevice("/nonsense:0")
	if g.Err() == nil || !strings.Contains(g.Err().Error(), "nonsense") {
		t.Errorf("root Err = %v, want malformed-spec failure from the view", g.Err())
	}
}

func TestColocateWithStampsHints(t *testing.T) {
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("params", tf.Scalar(0))
	slot := g.ColocateWith(v.Ref().Op()).Const(float32(0))
	g.Must()
	hints := slot.Op().Node().Colocation()
	if len(hints) != 1 || hints[0] != "params" {
		t.Errorf("colocation hints = %v, want [params]", hints)
	}
}

// TestLoopGradientRunsWhereTheLoopRan: a frame cannot span devices, so the
// backward loop of a While built under a device scope — its skeleton, its
// stack pushes inside the forward frame, the body's gradient — must all carry
// the forward loop's constraint, whatever the master's default device is.
// The step then runs on a two-task cluster and matches a local session.
func TestLoopGradientRunsWhereTheLoopRan(t *testing.T) {
	const loopTask = "/job:worker/task:1"
	build := func() (*tf.Graph, tf.Output, []tf.Output) {
		g := tf.NewGraph()
		x := g.Placeholder("x", tf.Float64, tf.Shape{1, 3})
		w := g.Const(tf.FromFloat64s(tf.Shape{3, 3}, []float64{0.5, -0.2, 0.1, 0.7, 0.3, -0.4, -0.6, 0.2, 0.9}))
		on := g.WithDevice(loopTask)
		outs := on.While(
			[]tf.Output{on.Const(int32(0)), x}, []tf.Output{w},
			func(vars, _ []tf.Output) tf.Output { return on.Less(vars[0], on.Const(int32(3))) },
			func(vars, invs []tf.Output) []tf.Output {
				return []tf.Output{on.Add(vars[0], on.Const(int32(1))), on.Tanh(on.MatMul(vars[1], invs[0]))}
			},
		)
		loss := g.Sum(g.Square(outs[1]), nil, false)
		grads, err := g.DenseGradients([]tf.Output{loss}, []tf.Output{x, w})
		if err != nil {
			t.Fatal(err)
		}
		return g, x, append([]tf.Output{loss}, grads...)
	}

	g, x, fetches := build()
	frames := 0
	for _, n := range g.Raw().Nodes() {
		if graph.NodeFrame(n) == "" {
			continue
		}
		frames++
		if n.Device() != loopTask {
			t.Errorf("%s (%s, frame %s) carries device %q, want %s", n.Name(), n.Op(), graph.NodeFrame(n), n.Device(), loopTask)
		}
	}
	if frames == 0 {
		t.Fatal("no node records a frame")
	}

	xv := tf.FromFloat64s(tf.Shape{1, 3}, []float64{0.3, -0.8, 1.1})
	sess := newSession(t, g)
	defer sess.Close()
	want, err := sess.Run(map[tf.Output]*tf.Tensor{x: xv}, fetches)
	if err != nil {
		t.Fatal(err)
	}

	g, x, fetches = build()
	got, err := onMaster(t, g, distributed.ClusterSpec{"worker": make([]string, 2)}, distributed.MasterOptions{})(
		map[tf.Output]*tf.Tensor{x: xv}, fetches)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := 0; j < want[i].NumElements(); j++ {
			if got[i].FloatAt(j) != want[i].FloatAt(j) {
				t.Errorf("fetch %d[%d] = %v on the cluster, %v locally", i, j, got[i].FloatAt(j), want[i].FloatAt(j))
			}
		}
	}
}
