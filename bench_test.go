// Package repro_test is the benchmark harness at the root of the
// repository: one benchmark per table and figure of the paper's evaluation
// (§6), a set of real-runtime microbenchmarks, and ablations of the design
// choices described in ARCHITECTURE.md (see "Executor scheduling and
// memory reuse"). cmd/tfbench prints the same results as formatted tables;
// EXPERIMENTS.md records a snapshot, and scripts/bench.sh regenerates the
// machine-readable BENCH_PR7.json.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/simcluster"
	"repro/internal/tensor"
	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
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

// BenchmarkExecutorNullOps measures the real executor's dispatch rate on
// chains of null operations (§5: the reference implementation dispatches
// approximately 2,000,000 null operations per second).
func BenchmarkExecutorNullOps(b *testing.B) {
	g := tf.NewGraph()
	const chains, depth = 32, 128
	var lasts []tf.Output
	for c := 0; c < chains; c++ {
		cur := g.Const(float32(c))
		for d := 0; d < depth; d++ {
			cur = g.Identity(cur)
		}
		lasts = append(lasts, cur)
	}
	final := g.AddN(lasts...)
	sess, err := tf.NewSession(g, tf.SessionOptions{DisableOptimizations: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Fetch1(nil, final); err != nil {
		b.Fatal(err)
	}
	opsPerStep := float64(chains*(depth+1) + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Fetch1(nil, final); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(opsPerStep*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkTrainingStep measures a realistic end-to-end training step
// (forward + backward + SGD update) of a small dense network on the real
// runtime.
func BenchmarkTrainingStep(b *testing.B) {
	g := tf.NewGraph()
	g.SetSeed(1)
	x := g.Placeholder("x", tf.Float32, tf.Shape{32, 64})
	y := g.Placeholder("y", tf.Int32, tf.Shape{32})
	logits, vars := nn.Classifier(g, "clf", x, []int{128, 64}, 10)
	loss := nn.CrossEntropyLoss(g, logits, y, 0, nil)
	opt := &train.GradientDescent{LearningRate: 0.01}
	trainOp, err := opt.Minimize(g, loss, vars)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		b.Fatal(err)
	}
	xs := tf.NewRNG(1).Uniform(tf.Float32, tf.Shape{32, 64}, -1, 1)
	ys := tf.NewRNG(2).UniformInt(tf.Int32, tf.Shape{32}, 10)
	feeds := map[tf.Output]*tf.Tensor{x: xs, y: ys}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(feeds, nil, trainOp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhileTrainingStep measures an end-to-end training step through
// control flow (§4.1, §3.4): an 8-iteration tf.While recurrence
// s ← tanh(s·W) with a squared-error loss and an SGD update. The step runs
// the forward loop (with stack pushes saving intermediates), the backward
// loop (stack pops, invariant accumulation) and the variable write — the
// workload class the frame-aware executor path and its pooled per-frame
// state exist for.
func BenchmarkWhileTrainingStep(b *testing.B) {
	g := tf.NewGraph()
	g.SetSeed(1)
	x := g.Placeholder("x", tf.Float32, tf.Shape{8, 16})
	w := g.NewVariableFromTensor("w", tf.NewRNG(3).Uniform(tf.Float32, tf.Shape{16, 16}, -0.3, 0.3))
	wVal := w.Value()
	outs := g.While(
		[]tf.Output{g.Const(int32(0)), x}, nil,
		func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], g.Const(int32(8))) },
		func(vars, _ []tf.Output) []tf.Output {
			return []tf.Output{
				g.Add(vars[0], g.Const(int32(1))),
				g.Tanh(g.MatMul(vars[1], wVal)),
			}
		},
	)
	loss := g.Mean(g.Square(outs[1]), nil, false)
	opt := &train.GradientDescent{LearningRate: 0.05}
	trainOp, err := opt.Minimize(g, loss, []*tf.Variable{w})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		b.Fatal(err)
	}
	xs := tf.NewRNG(1).Uniform(tf.Float32, tf.Shape{8, 16}, -1, 1)
	feeds := map[tf.Output]*tf.Tensor{x: xs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(feeds, nil, trainOp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedStep measures a cross-task step on the real
// in-process cluster: parameters on a PS task, compute on a worker,
// Send/Recv through the rendezvous.
func BenchmarkDistributedStep(b *testing.B) {
	spec := distributed.ClusterSpec{"ps": {""}, "worker": {""}}
	cluster := distributed.NewInProcCluster(spec)
	g := graph.New()
	v, _ := g.AddNode("Variable", nil, graph.NodeArgs{
		Name:   "w",
		Attrs:  map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{256, 256}},
		Device: "/job:ps/task:0",
	})
	c, _ := g.AddNode("Const", nil, graph.NodeArgs{
		Name: "init", Attrs: map[string]any{"value": tensor.New(tensor.Float32, tensor.Shape{256, 256})},
	})
	asg, _ := g.AddNode("Assign", []graph.Endpoint{v.Out(0), c.Out(0)}, graph.NodeArgs{Name: "assign"})
	read, _ := g.AddNode("Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "read"})
	sum, _ := g.AddNode("Sum", []graph.Endpoint{read.Out(0)}, graph.NodeArgs{
		Name: "sum", Device: "/job:worker/task:0",
	})
	m, err := distributed.NewMaster(g, spec, cluster.Resolver(), distributed.MasterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(nil, nil, []*graph.Node{asg}); err != nil {
		b.Fatal(err)
	}
	fetch := []graph.Endpoint{sum.Out(0)}
	if _, err := m.Run(nil, fetch, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(nil, fetch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicatedTrainingStep measures one asynchronous data-parallel
// training step through tf/train's replication layer (§4.4, Figure 4a):
// parameters sharded over two PS tasks, gradients computed on a worker
// replica, optimizer update applied on the shards, global step bumped —
// all over the real in-process cluster runtime.
func BenchmarkReplicatedTrainingStep(b *testing.B) {
	spec := distributed.ClusterSpec{"ps": {"", ""}, "worker": {""}}
	cluster := distributed.NewInProcCluster(spec)
	const (
		features = 32
		batch    = 16
	)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: cluster.Resolver(),
		Optimizer: &train.GradientDescent{LearningRate: 0.01},
	}, func(rb *train.ReplicaGraph) (*train.Model, error) {
		x := rb.Placeholder("x", tf.Float32, tf.Shape{batch, features})
		y := rb.Placeholder("y", tf.Float32, tf.Shape{batch, 1})
		w := rb.Variable("w", tf.NewTensor(tf.Float32, tf.Shape{features, 1}))
		bias := rb.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{1}))
		pred := rb.Add(rb.MatMul(x, w.Value()), bias.Value())
		loss := rb.Mean(rb.Square(rb.Sub(pred, y)), nil, false)
		return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		b.Fatal(err)
	}
	wTrue := make([]float32, features)
	for i := range wTrue {
		wTrue[i] = float32(i%5) - 2
	}
	xs, ys := nn.LinearData(1, batch, features, wTrue, 0.5, 0.01)
	feeds := map[string]*tf.Tensor{"x": xs, "y": ys}
	if _, err := r.TrainStep(0, feeds); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TrainStep(0, feeds); err != nil {
			b.Fatal(err)
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

// BenchmarkAblationExecutorControlFlowPath quantifies the executor's
// fast-path split: the same chain graph with and without a control-flow
// node, which forces the frame-aware (mutex-per-node) scheduling path.
func BenchmarkAblationExecutorControlFlowPath(b *testing.B) {
	build := func(withCtrlFlow bool) (*tf.Session, tf.Output, error) {
		g := tf.NewGraph()
		cur := g.Const(float32(1))
		if withCtrlFlow {
			pred := g.Const(true)
			outs := g.Cond(pred, []tf.Output{cur},
				func(ins []tf.Output) []tf.Output { return ins },
				func(ins []tf.Output) []tf.Output { return []tf.Output{g.Neg(ins[0])} })
			cur = outs[0]
		}
		for i := 0; i < 512; i++ {
			cur = g.Identity(cur)
		}
		sess, err := tf.NewSession(g, tf.SessionOptions{DisableOptimizations: true})
		if err != nil {
			return nil, tf.Output{}, err
		}
		if _, err := sess.Fetch1(nil, cur); err != nil {
			return nil, tf.Output{}, err
		}
		return sess, cur, nil
	}
	for _, ctrl := range []bool{false, true} {
		name := "fast-path"
		if ctrl {
			name = "frame-aware-path"
		}
		b.Run(name, func(b *testing.B) {
			sess, out, err := build(ctrl)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Fetch1(nil, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFusedKernels quantifies the kernel-fusion pass on the
// same end-to-end training step as BenchmarkTrainingStep: one session with
// the full pipeline, one with the fusion pass disabled (folding and CSE
// stay on, so the delta is fusion alone). The backward graph consumes the
// chain interiors, so fusion contracts each MatMul+BiasAdd pair into one
// FusedMatMul dispatch with no intermediate product tensor.
func BenchmarkAblationFusedKernels(b *testing.B) {
	build := func(disableFusion bool) (*tf.Session, map[tf.Output]*tf.Tensor, *tf.Operation, error) {
		g := tf.NewGraph()
		g.SetSeed(1)
		x := g.Placeholder("x", tf.Float32, tf.Shape{32, 64})
		y := g.Placeholder("y", tf.Int32, tf.Shape{32})
		logits, vars := nn.Classifier(g, "clf", x, []int{128, 64}, 10)
		loss := nn.CrossEntropyLoss(g, logits, y, 0, nil)
		opt := &train.GradientDescent{LearningRate: 0.01}
		trainOp, err := opt.Minimize(g, loss, vars)
		if err != nil {
			return nil, nil, nil, err
		}
		sess, err := tf.NewSession(g, tf.SessionOptions{DisableFusion: disableFusion})
		if err != nil {
			return nil, nil, nil, err
		}
		if err := sess.RunTargets(g.InitOp()); err != nil {
			return nil, nil, nil, err
		}
		feeds := map[tf.Output]*tf.Tensor{
			x: tf.NewRNG(1).Uniform(tf.Float32, tf.Shape{32, 64}, -1, 1),
			y: tf.NewRNG(2).UniformInt(tf.Int32, tf.Shape{32}, 10),
		}
		return sess, feeds, trainOp, nil
	}
	for _, disable := range []bool{false, true} {
		name := "fused"
		if disable {
			name = "unfused"
		}
		b.Run(name, func(b *testing.B) {
			sess, feeds, trainOp, err := build(disable)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Run(feeds, nil, trainOp); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(feeds, nil, trainOp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatMulGFLOPS measures the packed, cache-blocked matrix-multiply
// kernel underneath every dense layer, across sizes and both float widths
// (the headline kernel number the ROADMAP tracks; the snapshot's
// matmul_256x256_gflops is its float32/256x256 case).
func BenchmarkMatMulGFLOPS(b *testing.B) {
	for _, dt := range []tensor.DType{tensor.Float32, tensor.Float64} {
		for _, n := range []int{64, 256, 512} {
			b.Run(fmt.Sprintf("%s/%dx%d", dt, n, n), func(b *testing.B) {
				x := tensor.NewRNG(1).Uniform(dt, tensor.Shape{n, n}, -1, 1)
				y := tensor.NewRNG(2).Uniform(dt, tensor.Shape{n, n}, -1, 1)
				b.SetBytes(int64(3 * dt.Size() * n * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tensor.MatMul(x, y, false, false); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
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

// BenchmarkPSApplySyncStep is the PR 10 ablation: one synchronous round
// (m = 1, so no waiting on peers) through the legacy chief-apply path —
// gradients fetched to the chief, aggregated, and fed back into a PS-side
// apply graph — versus the shard-apply path, where the worker pushes its
// gradients to the owning PS shard and the update rule runs next to the
// variable. The sparse case pushes only the gathered embedding rows
// (indices + values) of a large table instead of a vocab-sized dense
// gradient.
func BenchmarkPSApplySyncStep(b *testing.B) {
	const (
		features = 32
		batch    = 16
		vocab    = 512
		dim      = 32
	)
	denseModel := func(rb *train.ReplicaGraph) (*train.Model, error) {
		x := rb.Placeholder("x", tf.Float32, tf.Shape{batch, features})
		y := rb.Placeholder("y", tf.Float32, tf.Shape{batch, 1})
		w := rb.Variable("w", tf.NewTensor(tf.Float32, tf.Shape{features, 1}))
		bias := rb.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{1}))
		pred := rb.Add(rb.MatMul(x, w.Value()), bias.Value())
		loss := rb.Mean(rb.Square(rb.Sub(pred, y)), nil, false)
		return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}, nil
	}
	embModel := func(rb *train.ReplicaGraph) (*train.Model, error) {
		idx := rb.Placeholder("idx", tf.Int32, tf.Shape{batch})
		init := tf.NewTensor(tf.Float32, tf.Shape{vocab, dim})
		for i := 0; i < init.NumElements(); i++ {
			init.SetFloat(i, float64(i%9)*0.1-0.4)
		}
		emb := rb.Variable("emb", init)
		rows := rb.Gather(emb.Value(), idx)
		loss := rb.Mean(rb.Square(rows), nil, false)
		return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"idx": idx}}, nil
	}

	wTrue := make([]float32, features)
	for i := range wTrue {
		wTrue[i] = float32(i%5) - 2
	}
	xs, ys := nn.LinearData(1, batch, features, wTrue, 0.5, 0.01)
	denseFeeds := map[string]*tf.Tensor{"x": xs, "y": ys}
	idx := make([]int32, batch)
	for i := range idx {
		idx[i] = int32((i * 37) % vocab)
	}
	embFeeds := map[string]*tf.Tensor{"idx": tf.FromInt32s(tf.Shape{batch}, idx)}

	run := func(b *testing.B, opts train.ReplicatedOptions, model train.ModelFn, feeds map[string]*tf.Tensor) {
		spec := distributed.ClusterSpec{"ps": {"", ""}, "worker": {""}}
		cluster := distributed.NewInProcCluster(spec)
		opts.Cluster = spec
		opts.Resolver = cluster.Resolver()
		opts.Sync = true
		if opts.Optimizer == nil {
			opts.Optimizer = &train.GradientDescent{LearningRate: 0.01}
		}
		r, err := train.NewReplicated(opts, model)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		if _, err := r.Init(); err != nil {
			b.Fatal(err)
		}
		if _, err := r.TrainStep(0, feeds); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.TrainStep(0, feeds); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("chief-apply", func(b *testing.B) {
		// Hiding the optimizer's UpdateRule is what selects the chief path.
		run(b, train.ReplicatedOptions{Optimizer: struct{ train.Optimizer }{&train.GradientDescent{LearningRate: 0.01}}},
			denseModel, denseFeeds)
	})
	b.Run("ps-apply", func(b *testing.B) {
		run(b, train.ReplicatedOptions{}, denseModel, denseFeeds)
	})
	b.Run("ps-apply-sparse", func(b *testing.B) {
		run(b, train.ReplicatedOptions{}, embModel, embFeeds)
	})
}
