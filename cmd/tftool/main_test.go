package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serving"
	"repro/internal/tensor"
	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
)

// TestFreezeMatchesLiveSession: `tftool freeze` rebuilds a serving model from
// what a training run leaves on disk — the graph as graph.Marshal wrote it
// before training, and a checkpoint — and must give what tf.Freeze gives from
// the live session: the same signature and bit-identical predictions.
func TestFreezeMatchesLiveSession(t *testing.T) {
	const batch, features = 8, 3
	g := tf.NewGraph()
	g.SetSeed(11)
	x := g.Placeholder("x", tf.Float32, tf.Shape{batch, features})
	y := g.Placeholder("y", tf.Float32, tf.Shape{batch, 1})
	hidden, v1 := nn.Dense(g, "hidden", x, 16, nn.ReLU)
	pred, v2 := nn.Dense(g, "out", hidden, 1, nn.Linear)
	vars := append(v1, v2...)
	loss := g.Mean(g.Square(g.Sub(pred, y)), nil, false)
	trainOp, err := (&train.GradientDescent{LearningRate: 0.05}).Minimize(g, loss, vars)
	if err != nil {
		t.Fatal(err)
	}
	saver, err := train.NewSaver(g, vars)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath, ckptPath, root := filepath.Join(dir, "graph.bin"), filepath.Join(dir, "model.ckpt"), filepath.Join(dir, "models")
	data, err := g.Raw().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(graphPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		xs, ys := nn.LinearData(int64(step), batch, features, []float32{1, -2, 0.5}, 0.1, 0.01)
		if _, err := sess.Run(map[tf.Output]*tf.Tensor{x: xs, y: ys}, nil, trainOp); err != nil {
			t.Fatal(err)
		}
	}
	if err := saver.Save(sess, ckptPath); err != nil {
		t.Fatal(err)
	}

	live, err := tf.Freeze(sess, []tf.SigTensor{{Alias: "x", Output: x}}, []tf.SigTensor{{Alias: "pred", Output: pred}},
		tf.FreezeOptions{BatchDim: true})
	if err != nil {
		t.Fatal(err)
	}
	freeze([]string{"-graph", graphPath, "-ckpt", ckptPath, "-out", root, "-name", "m", "-batch",
		"-input", "x:0", "-output", "pred=" + pred.Unwrap().String()})
	fromFiles, err := serving.LoadModel(root, "m", 1, serving.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fromFiles.Close()
	if !reflect.DeepEqual(fromFiles.Sig, live.Signature()) {
		t.Fatalf("signatures differ:\ntftool freeze: %+v\ntf.Freeze:     %+v", fromFiles.Sig, live.Signature())
	}
	fromSession, err := serving.NewModel("m", 1, live.Graph(), live.Signature(), serving.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fromSession.Close()

	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{1, 5, batch} {
		in := make([]float32, rows*features)
		for i := range in {
			in[i] = float32(rng.NormFloat64())
		}
		xs := tensor.FromFloat32s(tensor.Shape{rows, features}, in)
		want, err := fromSession.Predict([]*tensor.Tensor{xs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := fromFiles.Predict([]*tensor.Tensor{xs})
		if err != nil {
			t.Fatal(err)
		}
		wv, gv := want[0].Float32s(), got[0].Float32s()
		if len(wv) != rows || len(gv) != rows {
			t.Fatalf("%d rows: predictions have %d and %d values", rows, len(wv), len(gv))
		}
		for i := range wv {
			if math.Float32bits(wv[i]) != math.Float32bits(gv[i]) {
				t.Fatalf("%d rows, row %d: tftool freeze predicts %v, tf.Freeze %v", rows, i, gv[i], wv[i])
			}
		}
	}
}
