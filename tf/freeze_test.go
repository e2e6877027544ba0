package tf_test

// Freeze-equivalence battery: freezing a trained graph must change nothing
// about what it computes. The conv model of examples/imageclass trains
// through its queue-based input pipeline, is frozen to an image→logits
// predict signature, and the frozen graph's predictions must be
// bit-identical to the live training session's across random inputs. A
// golden snapshot pins the frozen graph's structure (refresh: make golden).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/serving"
	"repro/internal/tensor"
	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
)

const (
	fzBatch   = 16
	fzImgSize = 8
	fzClasses = 4
)

// trainedImageModel builds the imageclass architecture (conv → pool → conv
// → pool → dense over a FIFOQueue input pipeline), trains it a few steps,
// and returns the live session plus the endpoints of the predict signature.
func trainedImageModel(t testing.TB) (*tf.Graph, *tf.Session, tf.Output, tf.Output) {
	t.Helper()
	g := tf.NewGraph()
	g.SetSeed(7)

	q := g.FIFOQueue("input", 64,
		[]tf.DType{tf.Float32, tf.Int32},
		[]tf.Shape{{fzImgSize, fzImgSize, 1}, {}})
	rawImg := g.Placeholder("raw_img", tf.Float32, tf.Shape{fzBatch, fzImgSize, fzImgSize, 1})
	rawLbl := g.Placeholder("raw_lbl", tf.Int32, tf.Shape{fzBatch})
	enqueue := q.EnqueueMany(rawImg, rawLbl)
	batchOuts := q.DequeueMany(fzBatch)
	images, labels := batchOuts[0], batchOuts[1]

	conv1, v1 := nn.Conv2DLayer(g, "conv1", images, 8, 3, 3, [2]int{1, 1}, "SAME", nn.ReLU)
	pool1 := g.MaxPool(conv1, [2]int{2, 2}, [2]int{2, 2}, "VALID")
	conv2, v2 := nn.Conv2DLayer(g, "conv2", pool1, 16, 3, 3, [2]int{1, 1}, "SAME", nn.ReLU)
	pool2 := g.MaxPool(conv2, [2]int{2, 2}, [2]int{2, 2}, "VALID")
	logits, v3 := nn.Dense(g, "head", nn.Flatten(g, pool2), fzClasses, nn.Linear)

	vars := append(append(v1, v2...), v3...)
	loss := nn.CrossEntropyLoss(g, logits, labels, 1e-4, vars)
	opt := &train.Momentum{LearningRate: 0.03, Decay: 0.9}
	trainOp, err := opt.Minimize(g, loss, vars)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		xs, ys := nn.SyntheticImages(nil, int64(step), fzBatch, fzImgSize, fzImgSize, 1, fzClasses)
		if _, err := sess.Run(map[tf.Output]*tf.Tensor{rawImg: xs, rawLbl: ys}, nil, enqueue); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil, []tf.Output{loss}, trainOp); err != nil {
			t.Fatal(err)
		}
	}
	return g, sess, images, logits
}

// TestFreezeEquivalence is the bit-identical property test: across random
// inputs, the frozen graph (run through tf.Frozen.Session and through a
// serving.Model) must reproduce the live session's logits exactly — same
// kernels, same values, no tolerance.
func TestFreezeEquivalence(t *testing.T) {
	_, sess, images, logits := trainedImageModel(t)

	frozen, err := tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "image", Output: images}},
		[]tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	fsess, outs, err := frozen.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer fsess.Close()

	model, err := serving.NewModel("imageclass", 1, frozen.Graph(), frozen.Signature(), serving.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close()

	for trial := 0; trial < 20; trial++ {
		xs, _ := nn.SyntheticImages(nil, int64(100+trial), fzBatch, fzImgSize, fzImgSize, 1, fzClasses)

		live, err := sess.Run(map[tf.Output]*tf.Tensor{images: xs}, []tf.Output{logits})
		if err != nil {
			t.Fatal(err)
		}
		froz, err := fsess.Run(map[tf.Output]*tf.Tensor{outs["image"]: xs}, []tf.Output{outs["logits"]})
		if err != nil {
			t.Fatal(err)
		}
		if !live[0].Equal(froz[0]) {
			t.Fatalf("trial %d: frozen session logits differ from live session", trial)
		}
		served, err := model.Predict([]*tensor.Tensor{xs})
		if err != nil {
			t.Fatal(err)
		}
		if !live[0].Equal(served[0]) {
			t.Fatalf("trial %d: serving model logits differ from live session", trial)
		}
	}
}

// TestFreezeRejectsStateAndMissingFeeds pins the freeze pass's error
// surface: a signature whose subgraph still contains state (the optimizer's
// Assign ops, the queue) or an unfed placeholder must be refused by name.
func TestFreezeRejectsStateAndMissingFeeds(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{2, 2})
	v := g.NewVariableFromTensor("w", tf.Scalar(3))
	y := g.Mul(x, v.Value())
	sum := g.Add(y, x)
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}

	// Fetching through an Assign is stateful and must be refused.
	assignOut := v.Assign(g.Const(tf.Scalar(4))).Output(0)
	if _, err := tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "x", Output: x}},
		[]tf.SigTensor{{Alias: "w2", Output: assignOut}},
		tf.FreezeOptions{}); err == nil || !strings.Contains(err.Error(), "stateful") {
		t.Fatalf("freezing through Assign: got %v, want stateful-op error", err)
	}

	// A reachable placeholder missing from the feed list is an error.
	if _, err := tf.Freeze(sess, []tf.SigTensor{},
		[]tf.SigTensor{{Alias: "y", Output: sum}},
		tf.FreezeOptions{}); err == nil {
		t.Fatal("freeze with no inputs succeeded")
	}
	g2 := tf.NewGraph()
	a := g2.Placeholder("a", tf.Float32, tf.Shape{2})
	b := g2.Placeholder("b", tf.Float32, tf.Shape{2})
	c := g2.Add(a, b)
	sess2, err := tf.NewSession(g2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if _, err := tf.Freeze(sess2,
		[]tf.SigTensor{{Alias: "a", Output: a}},
		[]tf.SigTensor{{Alias: "c", Output: c}},
		tf.FreezeOptions{}); err == nil || !strings.Contains(err.Error(), "not in the feed list") {
		t.Fatalf("freezing with unfed placeholder: got %v, want unfed-placeholder error", err)
	}

	// An uninitialized variable has no value to fold.
	g3 := tf.NewGraph()
	x3 := g3.Placeholder("x", tf.Float32, tf.Shape{2})
	v3 := g3.NewVariableFromTensor("w3", tf.Scalar(1))
	y3 := g3.Mul(x3, v3.Value())
	sess3, err := tf.NewSession(g3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess3.Close()
	if _, err := tf.Freeze(sess3,
		[]tf.SigTensor{{Alias: "x", Output: x3}},
		[]tf.SigTensor{{Alias: "y", Output: y3}},
		tf.FreezeOptions{}); err == nil || !strings.Contains(err.Error(), "no snapshot value") {
		t.Fatalf("freezing uninitialized variable: got %v, want no-snapshot error", err)
	}
}

// TestFreezeBatchDim freezes a dense model with BatchDim and checks the
// frozen graph accepts any batch size, with per-row results identical to
// feeding the rows one at a time.
func TestFreezeBatchDim(t *testing.T) {
	g := tf.NewGraph()
	g.SetSeed(3)
	x := g.Placeholder("x", tf.Float32, tf.Shape{1, 6})
	h, v1 := nn.Dense(g, "hidden", x, 8, nn.ReLU)
	logits, v2 := nn.Dense(g, "out", h, 3, nn.Linear)
	_ = append(v1, v2...)
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}

	frozen, err := tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "x", Output: x}},
		[]tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{BatchDim: true})
	if err != nil {
		t.Fatal(err)
	}
	sig := frozen.Signature()
	if !sig.Batchable {
		t.Fatal("BatchDim signature not marked batchable")
	}
	if got := sig.Inputs[0].Shape[0]; got != -1 {
		t.Fatalf("input batch dim = %d, want -1", got)
	}

	fsess, outs, err := frozen.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer fsess.Close()

	rng := tensor.NewRNG(5)
	batch := rng.Normal(tf.Float32, tf.Shape{7, 6}, 0, 1)
	whole, err := fsess.Run(map[tf.Output]*tf.Tensor{outs["x"]: batch}, []tf.Output{outs["logits"]})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tensor.Split(tensor.New, batch, 0, []int{1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		one, err := fsess.Run(map[tf.Output]*tf.Tensor{outs["x"]: row}, []tf.Output{outs["logits"]})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if one[0].FloatAt(j) != whole[0].FloatAt(i*3+j) {
				t.Fatalf("row %d col %d: batched %v != single %v", i, j, whole[0].FloatAt(i*3+j), one[0].FloatAt(j))
			}
		}
	}
}

// TestFrozenGraphGolden pins the frozen, optimized structure of the
// imageclass predict signature — the export-side counterpart of
// TestOptimizedGraphGolden. Refresh with `make golden`.
func TestFrozenGraphGolden(t *testing.T) {
	_, sess, images, logits := trainedImageModel(t)
	frozen, err := tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "image", Output: images}},
		[]tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	for _, n := range frozen.Graph().Nodes() {
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
		lines = append(lines, fmt.Sprintf("%s = %s(%s)", n.Name(), n.Op(), strings.Join(parts, ", ")))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "frozen_graph.golden")
	if *updateGolden {
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
		t.Errorf("frozen graph drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFreezeExportRoundTrip exports a frozen model to disk and reloads it
// through the serving loader: same signature, same predictions.
func TestFreezeExportRoundTrip(t *testing.T) {
	_, sess, images, logits := trainedImageModel(t)
	frozen, err := tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "image", Output: images}},
		[]tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := frozen.Export(root, "imageclass", 1); err != nil {
		t.Fatal(err)
	}
	// Re-exporting the same version must be refused (versions are
	// immutable once published).
	if err := frozen.Export(root, "imageclass", 1); err == nil {
		t.Fatal("re-exporting an existing version succeeded")
	}

	m, err := serving.LoadModel(root, "imageclass", 1, serving.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Warm(); err != nil {
		t.Fatal(err)
	}

	xs, _ := nn.SyntheticImages(nil, 42, fzBatch, fzImgSize, fzImgSize, 1, fzClasses)
	live, err := sess.Run(map[tf.Output]*tf.Tensor{images: xs}, []tf.Output{logits})
	if err != nil {
		t.Fatal(err)
	}
	served, err := m.Predict([]*tensor.Tensor{xs})
	if err != nil {
		t.Fatal(err)
	}
	if !live[0].Equal(served[0]) {
		t.Fatal("reloaded model's logits differ from the live session")
	}
	if m.Sig.Inputs[0].Alias != "image" || m.Sig.Outputs[0].Alias != "logits" {
		t.Fatalf("signature lost aliases on round trip: %+v", m.Sig)
	}
}

// graphNodeOps is a tiny helper used to assert what ops survive freezing.
func graphNodeOps(g *graph.Graph) map[string]int {
	out := map[string]int{}
	for _, n := range g.Nodes() {
		if !n.Dead() {
			out[n.Op()]++
		}
	}
	return out
}

// TestFreezeFoldsVariablesAndState checks the frozen imageclass graph has
// no Variable, Read, queue or optimizer nodes left — only pure compute.
func TestFreezeFoldsVariablesAndState(t *testing.T) {
	_, sess, images, logits := trainedImageModel(t)
	frozen, err := tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "image", Output: images}},
		[]tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := graphNodeOps(frozen.Graph())
	for _, banned := range []string{"Variable", "Read", "Assign", "FIFOQueue", "Dequeue", "DequeueMany", "ApplyMomentum"} {
		if ops[banned] > 0 {
			t.Errorf("frozen graph still contains %d %s nodes", ops[banned], banned)
		}
	}
	if ops["Placeholder"] != 1 {
		t.Errorf("frozen graph has %d placeholders, want exactly the feed", ops["Placeholder"])
	}
	if ops["Conv2D"] == 0 {
		t.Error("frozen graph lost its Conv2D nodes")
	}
}
