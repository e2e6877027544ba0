package tf_test

import (
	"testing"

	"repro/tf"
)

// Ablations of two design choices described in ARCHITECTURE.md, on the public
// API alone. Run as
//
//	go test -run '^$' -bench Ablation ./tf

// BenchmarkAblationSubgraphCache quantifies the master's subgraph cache
// (§3.3/§5): step latency with the cached executable vs re-pruning and
// re-compiling the step definition every time.
func BenchmarkAblationSubgraphCache(b *testing.B) {
	build := func() (*tf.Graph, tf.Output) {
		g := tf.NewGraph()
		cur := g.Const(float32(1))
		for i := 0; i < 200; i++ {
			cur = g.Identity(cur)
		}
		return g, cur
	}
	b.Run("cached", func(b *testing.B) {
		g, out := build()
		sess, err := tf.NewSession(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Fetch1(nil, out); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Fetch1(nil, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompile-per-step", func(b *testing.B) {
		g, out := build()
		core := func() error {
			// A fresh session compiles the subgraph anew (no cache).
			sess, err := tf.NewSession(g, tf.SessionOptions{DisableOptimizations: true})
			if err != nil {
				return err
			}
			_, err = sess.Fetch1(nil, out)
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := core(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSparseVsDense quantifies the sparse-update design of
// §4.2: a training step on a large embedding using sparse ScatterSub of
// only the gathered rows vs densifying the gradient and assigning the full
// matrix.
func BenchmarkAblationSparseVsDense(b *testing.B) {
	const vocab, dim, batchRows = 50000, 64, 32
	build := func(sparse bool) (*tf.Session, *tf.Operation, error) {
		g := tf.NewGraph()
		g.SetSeed(1)
		emb := g.NewVariable("emb", g.RandomNormal(tf.Float32, tf.Shape{vocab, dim}, 0, 0.1))
		ids := g.RandomUniformInt(tf.Shape{batchRows}, vocab)
		rows := g.Gather(emb.Value(), ids)
		loss := g.Sum(g.Square(rows), nil, false)
		grads, err := g.Gradients([]tf.Output{loss}, []tf.Output{emb.Value()})
		if err != nil {
			return nil, nil, err
		}
		var trainOp *tf.Operation
		if sparse {
			sp := grads[0].Sparse
			lr := g.Const(float32(0.01))
			trainOp = emb.ScatterSub(sp.Indices, g.Mul(sp.Values, lr))
		} else {
			dense, err := g.DensifyGradient(grads[0])
			if err != nil {
				return nil, nil, err
			}
			trainOp = emb.AssignSub(g.Mul(dense, g.Const(float32(0.01))))
		}
		sess, err := tf.NewSession(g)
		if err != nil {
			return nil, nil, err
		}
		if err := sess.RunTargets(g.InitOp()); err != nil {
			return nil, nil, err
		}
		return sess, trainOp, nil
	}
	for _, sparse := range []bool{true, false} {
		name := "dense-update"
		if sparse {
			name = "sparse-scatter"
		}
		b.Run(name, func(b *testing.B) {
			sess, trainOp, err := build(sparse)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.RunTargets(trainOp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
