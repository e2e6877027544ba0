package tf_test

// End-to-end checks of the compile-time optimization pipeline (§5): the
// same model runs through a fused and an unfused session and must produce
// identical losses and gradients, with the fused session actually executing
// FusedMatMul / SoftmaxCrossEntropyWithLogits nodes. A golden snapshot of
// the optimized graph structure pins the pass suite's combined output.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/tf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// denseSoftmaxModel builds the canonical post-autodiff hot chain the fusion
// pass targets: Relu(MatMul(x, w) + b) fed into a hand-rolled cross-entropy
// (-Σ labels·log(softmax(logits)) over axis 1), summed to a scalar loss.
func denseSoftmaxModel(withGrads bool) (*tf.Graph, tf.Output, tf.Output, []tf.Output, error) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float64, tf.Shape{4, 3})
	w := g.Const(tf.FromFloat64s(tf.Shape{3, 5}, []float64{
		0.5, -0.2, 0.1, 0.7, 0.3,
		-0.4, 0.6, 0.2, -0.1, 0.9,
		0.8, -0.6, 0.4, 0.2, -0.3,
	}))
	b := g.Const(tf.FromFloat64s(tf.Shape{5}, []float64{0.1, -0.2, 0.3, 0, -0.1}))
	labels := g.Const(tf.FromFloat64s(tf.Shape{4, 5}, []float64{
		1, 0, 0, 0, 0,
		0, 0, 1, 0, 0,
		0, 0, 0, 0, 1,
		0, 1, 0, 0, 0,
	}))
	logits := g.Relu(g.BiasAdd(g.MatMul(x, w), b))
	perExample := g.Neg(g.Sum(g.Mul(labels, g.Log(g.Softmax(logits))), []int{1}, false))
	loss := g.Sum(perExample, nil, false)
	if err := g.Err(); err != nil {
		return nil, tf.Output{}, tf.Output{}, nil, err
	}
	var grads []tf.Output
	if withGrads {
		var err error
		grads, err = g.DenseGradients([]tf.Output{loss}, []tf.Output{x})
		if err != nil {
			return nil, tf.Output{}, tf.Output{}, nil, err
		}
	}
	return g, x, loss, grads, nil
}

// liveOps returns the op-type histogram of non-dead nodes.
func liveOps(g *tf.Graph) map[string]int {
	ops := map[string]int{}
	for _, n := range g.Raw().Nodes() {
		if !n.Dead() {
			ops[n.Op()]++
		}
	}
	return ops
}

// TestFusionInferenceGraphRewrites: with no gradient consumers in the way,
// both hot-chain patterns must fire — the session executes a Relu-activated
// FusedMatMul and a fused cross-entropy — and the fused result must match an
// unfused session bit for bit.
func TestFusionInferenceGraphRewrites(t *testing.T) {
	feed := tf.FromFloat64s(tf.Shape{4, 3}, []float64{
		0.3, -0.8, 1.1, 2.0, 0.1, -0.5, -1.2, 0.7, 0.4, 0.9, -0.3, 0.6,
	})
	run := func(disableFusion bool) (float64, *tf.Graph) {
		g, x, loss, _, err := denseSoftmaxModel(false)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tf.NewSession(g, tf.SessionOptions{DisableFusion: disableFusion})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out, err := s.Fetch1(map[tf.Output]*tf.Tensor{x: feed}, loss)
		if err != nil {
			t.Fatal(err)
		}
		return out.FloatAt(0), g
	}
	fusedLoss, fusedG := run(false)
	unfusedLoss, unfusedG := run(true)
	if math.Abs(fusedLoss-unfusedLoss) > 1e-12 {
		t.Errorf("fused loss %v != unfused loss %v", fusedLoss, unfusedLoss)
	}

	ops := liveOps(fusedG)
	if ops["FusedMatMul"] != 1 || ops["SoftmaxCrossEntropyWithLogits"] != 1 {
		t.Fatalf("fused graph live ops missing fusions: %v", ops)
	}
	for _, n := range fusedG.Raw().Nodes() {
		if n.Op() == "FusedMatMul" && n.AttrString("activation", "") != "Relu" {
			t.Errorf("inference-only chain should fuse the Relu too, got activation %q",
				n.AttrString("activation", ""))
		}
	}
	if ops := liveOps(unfusedG); ops["FusedMatMul"] != 0 || ops["SoftmaxCrossEntropyWithLogits"] != 0 {
		t.Errorf("DisableFusion session still fused: %v", ops)
	}
}

// TestFusedVsUnfusedGradCheck is the ablation the issue gates on: one model,
// fusion on and off, identical losses and analytic gradients, and the fused
// session's analytic gradient verified against central differences. (With
// backward nodes consuming the chain interiors, only the MatMul+BiasAdd
// prefix is single-consumer, so the fused graph carries an activation-less
// FusedMatMul — the safety conditions, not the pattern list, decide.)
func TestFusedVsUnfusedGradCheck(t *testing.T) {
	type sess struct {
		s     *tf.Session
		x     tf.Output
		loss  tf.Output
		grad  tf.Output
		graph *tf.Graph
	}
	open := func(disableFusion bool) sess {
		g, x, loss, grads, err := denseSoftmaxModel(true)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tf.NewSession(g, tf.SessionOptions{DisableFusion: disableFusion})
		if err != nil {
			t.Fatal(err)
		}
		return sess{s: s, x: x, loss: loss, grad: grads[0], graph: g}
	}
	fused, unfused := open(false), open(true)
	defer fused.s.Close()
	defer unfused.s.Close()

	point := tf.FromFloat64s(tf.Shape{4, 3}, []float64{
		0.3, -0.8, 1.1, 2.0, 0.1, -0.5, -1.2, 0.7, 0.4, 0.9, -0.3, 0.6,
	})
	eval := func(sc sess, at *tensor.Tensor) (loss float64, grad *tensor.Tensor) {
		out, err := sc.s.Run(map[tf.Output]*tf.Tensor{sc.x: at}, []tf.Output{sc.loss, sc.grad})
		if err != nil {
			t.Fatal(err)
		}
		return out[0].FloatAt(0), out[1]
	}
	fl, fg := eval(fused, point)
	ul, ug := eval(unfused, point)
	if math.Abs(fl-ul) > 1e-12 {
		t.Errorf("fused loss %v != unfused loss %v", fl, ul)
	}
	for i := 0; i < fg.NumElements(); i++ {
		if d := math.Abs(fg.FloatAt(i) - ug.FloatAt(i)); d > 1e-12 {
			t.Errorf("grad[%d]: fused %v vs unfused %v", i, fg.FloatAt(i), ug.FloatAt(i))
		}
	}
	if ops := liveOps(fused.graph); ops["FusedMatMul"] == 0 {
		t.Errorf("fused session never produced a live FusedMatMul: %v", ops)
	}

	testutil.GradCheck{
		Eval: func(at *tensor.Tensor) (float64, error) {
			l, _ := eval(fused, at)
			return l, nil
		},
		Grad: func(at *tensor.Tensor) (*tensor.Tensor, error) {
			_, g := eval(fused, at)
			return g, nil
		},
	}.Run(t, "fused", point)
	testutil.GradCheck{
		Eval: func(at *tensor.Tensor) (float64, error) {
			l, _ := eval(unfused, at)
			return l, nil
		},
		Grad: func(at *tensor.Tensor) (*tensor.Tensor, error) {
			_, g := eval(unfused, at)
			return g, nil
		},
	}.Run(t, "unfused", point)
}

// TestFusedMatMulGradient differentiates a graph that already contains a
// FusedMatMul node (the post-optimization scenario: building a loss on an
// optimized inference graph), covering the registered gradient directly.
func TestFusedMatMulGradient(t *testing.T) {
	for _, act := range []string{"", "Relu"} {
		name := "linear"
		if act != "" {
			name = act
		}
		g := tf.NewGraph()
		x := g.Placeholder("x", tf.Float64, tf.Shape{2, 3})
		w := g.Const(tf.FromFloat64s(tf.Shape{3, 4}, []float64{
			0.5, -0.2, 0.1, 0.7, 0.3, -0.4, 0.6, 0.2, -0.1, 0.9, 0.8, -0.6,
		}))
		b := g.Const(tf.FromFloat64s(tf.Shape{4}, []float64{0.1, -0.2, 0.3, 0}))
		fm := g.Builder().Op("FusedMatMul",
			[]graph.Endpoint{x.Unwrap(), w.Unwrap(), b.Unwrap()},
			map[string]any{"activation": act})
		loss := g.Sum(g.Square(g.WrapOutput(fm)), nil, false)
		grads, err := g.DenseGradients([]tf.Output{loss}, []tf.Output{x})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := newSession(t, g)
		point := tf.FromFloat64s(tf.Shape{2, 3}, []float64{0.4, -1.1, 0.9, 1.6, -0.3, 0.2})
		testutil.GradCheck{
			Eval: func(at *tensor.Tensor) (float64, error) {
				out, err := s.Run(map[tf.Output]*tf.Tensor{x: at}, []tf.Output{loss})
				if err != nil {
					return 0, err
				}
				return out[0].FloatAt(0), nil
			},
			Grad: func(at *tensor.Tensor) (*tensor.Tensor, error) {
				out, err := s.Run(map[tf.Output]*tf.Tensor{x: at}, []tf.Output{grads[0]})
				if err != nil {
					return nil, err
				}
				return out[0], nil
			},
		}.Run(t, "FusedMatMul/"+name, point)
		s.Close()
	}
}

// TestOptimizedGraphGolden runs the full pass pipeline over the inference
// model and over an embedding training step, and compares the surviving
// (non-dead) graph structures against a committed snapshot — the regression
// net for the whole pass suite. Refresh with `make golden`
// (go test ./tf ./tf/train -run Golden -update).
func TestOptimizedGraphGolden(t *testing.T) {
	dense, _, _, _, err := denseSoftmaxModel(false)
	if err != nil {
		t.Fatal(err)
	}
	var snapshot strings.Builder
	for _, m := range []struct {
		name string
		g    *tf.Graph
		did  func(*graph.Result) int // the pass the model exists to pin
	}{
		{"dense softmax", dense, func(r *graph.Result) int { return r.Fused }},
		{"embedding training step", buildEmbeddingProgram(t).g, func(r *graph.Result) int { return r.Sparse }},
	} {
		pipe := graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{})
		res, err := pipe.Run(m.g.Raw())
		if err != nil {
			t.Fatal(err)
		}
		if m.did(res) == 0 {
			t.Fatalf("%s: the pipeline left the model's pattern alone", m.name)
		}
		var lines []string
		for _, n := range m.g.Raw().Nodes() {
			if n.Dead() {
				continue
			}
			parts := make([]string, 0, n.NumInputs()+len(n.ControlInputs()))
			for _, in := range n.Inputs() {
				parts = append(parts, in.String())
			}
			for _, c := range n.ControlInputs() {
				parts = append(parts, "^"+c.Name())
			}
			line := fmt.Sprintf("%s = %s(%s)", n.Name(), n.Op(), strings.Join(parts, ", "))
			if n.Device() != "" {
				line += " @" + n.Device()
			}
			lines = append(lines, line)
		}
		sort.Strings(lines)
		fmt.Fprintf(&snapshot, "# %s\n%s\n", m.name, strings.Join(lines, "\n"))
	}
	got := snapshot.String()

	path := filepath.Join("testdata", "optimized_graph.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `make golden`): %v", err)
	}
	if got != string(want) {
		t.Errorf("optimized graph drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
