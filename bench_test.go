// Package repro_test holds the benchmarks that have no counterpart in the
// repository benchmark (bench/, run by `bash bench/run.sh`): one per table
// and figure of the paper's evaluation (§6), all on the cluster simulator —
// cmd/tfbench prints the same results as formatted tables and EXPERIMENTS.md
// records a snapshot — plus ablations of design choices described in
// ARCHITECTURE.md and the convolution kernel. Everything measured on the real
// runtime end to end lives in bench/.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/simcluster"
	"repro/internal/tensor"
	"repro/tf"
)

// BenchmarkTable1SingleMachine regenerates Table 1 (§6.1): training step
// time per framework per model from the layer-level GPU cost model. The
// reported metric is the predicted step time in milliseconds.
func BenchmarkTable1SingleMachine(b *testing.B) {
	models := simcluster.BenchmarkModels()
	for _, f := range simcluster.BenchmarkFrameworks() {
		for _, m := range models {
			b.Run(fmt.Sprintf("%s/%s", f.Name, m.Name), func(b *testing.B) {
				var t float64
				for i := 0; i < b.N; i++ {
					t = simcluster.StepTime(m, f)
				}
				b.ReportMetric(t*1000, "step-ms")
				b.ReportMetric(m.TrainFLOPs()/1e9, "GFLOP/step")
			})
		}
	}
}

// BenchmarkFigure6NullStep regenerates Figure 6 (§6.2): median null-step
// time under synchronous replication with 16 PS tasks.
func BenchmarkFigure6NullStep(b *testing.B) {
	curves := []struct {
		label string
		kind  string
		bytes float64
	}{
		{"Scalar", "scalar", 0},
		{"Sparse1GB", "sparse", 1e9},
		{"Sparse16GB", "sparse", 16e9},
		{"Dense100MB", "dense", 100e6},
		{"Dense1GB", "dense", 1e9},
	}
	for _, c := range curves {
		for _, workers := range []int{1, 2, 5, 10, 25, 50, 100} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.label, workers), func(b *testing.B) {
				var med float64
				for i := 0; i < b.N; i++ {
					st := simcluster.SimulateCluster(simcluster.Figure6Config(workers, c.kind, c.bytes), 10)
					med = st.Median()
				}
				b.ReportMetric(med*1000, "step-ms")
				b.ReportMetric(1/med, "batches/s")
			})
		}
	}
}

// BenchmarkFigure7Throughput regenerates Figure 7 (§6.3): Inception-v3
// training throughput and step-time percentiles for asynchronous and
// synchronous coordination.
func BenchmarkFigure7Throughput(b *testing.B) {
	for _, workers := range []int{25, 50, 100, 200} {
		for _, sync := range []bool{false, true} {
			mode := "async"
			if sync {
				mode = "sync"
			}
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(b *testing.B) {
				var st simcluster.StepStats
				for i := 0; i < b.N; i++ {
					st = simcluster.SimulateCluster(simcluster.InceptionConfig(workers, 0, sync), 10)
				}
				imgs := st.Throughput * 32
				if sync {
					imgs = st.Throughput * float64(workers) * 32
				}
				b.ReportMetric(imgs, "images/s")
				b.ReportMetric(st.Median(), "step-p50-s")
				b.ReportMetric(st.P90(), "step-p90-s")
			})
		}
	}
}

// BenchmarkFigure8BackupWorkers regenerates Figure 8 (§6.3): the effect of
// 0–5 backup workers on the 50-worker synchronous step, with the paper's
// normalized speedup t(0)/t(b)·50/(50+b).
func BenchmarkFigure8BackupWorkers(b *testing.B) {
	base := simcluster.SimulateCluster(simcluster.InceptionConfig(50, 0, true), 30).Median()
	for backups := 0; backups <= 5; backups++ {
		b.Run(fmt.Sprintf("backups=%d", backups), func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				med = simcluster.SimulateCluster(simcluster.InceptionConfig(50, backups, true), 30).Median()
			}
			b.ReportMetric(med, "step-s")
			b.ReportMetric(base/med*50/float64(50+backups), "norm-speedup")
		})
	}
}

// BenchmarkFigure9LanguageModel regenerates Figure 9 (§6.4): language-model
// training throughput for full vs sampled softmax across PS task counts.
func BenchmarkFigure9LanguageModel(b *testing.B) {
	for _, workers := range []int{4, 32, 256} {
		for _, sampled := range []bool{false, true} {
			mode := "full"
			if sampled {
				mode = "sampled"
			}
			for _, ps := range []int{1, 4, 16, 32} {
				b.Run(fmt.Sprintf("workers=%d/%s/ps=%d", workers, mode, ps), func(b *testing.B) {
					var tput float64
					for i := 0; i < b.N; i++ {
						tput = simcluster.SimulateLM(simcluster.DefaultLMConfig(workers, ps, sampled), 5)
					}
					b.ReportMetric(tput, "words/s")
				})
			}
		}
	}
}

// --- ablations (ARCHITECTURE.md) --------------------------------------------

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

// BenchmarkConv2D measures the convolution kernel (§3.1's canonical 4-D
// operation).
func BenchmarkConv2D(b *testing.B) {
	in := tensor.NewRNG(1).Uniform(tensor.Float32, tensor.Shape{8, 28, 28, 16}, -1, 1)
	filter := tensor.NewRNG(2).Uniform(tensor.Float32, tensor.Shape{3, 3, 16, 32}, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.Conv2D(in, filter, 1, 1, tensor.PaddingSame); err != nil {
			b.Fatal(err)
		}
	}
}
