package tf_test

// Differential check of the sparse-read pass on the program it exists for:
// an embedding lookup spelled Gather(v.Value(), idx), trained through its
// sparse gradient. The optimized session and the optimized two-task master
// read the table in place beside the variable; the unoptimized session
// snapshots it. All three must hold the same bits after every step.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/tf"
)

const (
	diffVocab, diffDim, diffBatch = 16, 4, 6
	diffTableTask, diffModelTask  = "/job:worker/task:1", "/job:worker/task:0"
)

// embeddingProgram is one training step of rows = Gather(emb, idx);
// loss = mean((rows·w − y)²) with hand-written SGD: a ScatterSub of the
// table's sparse gradient and an AssignSub of the head's dense one.
type embeddingProgram struct {
	g       *tf.Graph
	idx, y  tf.Output
	loss    tf.Output
	state   []tf.Output // the table and the head, read back after training
	updates []*tf.Operation
}

func buildEmbeddingProgram(t *testing.T) *embeddingProgram {
	t.Helper()
	g := tf.NewGraph()
	table := tf.NewTensor(tf.Float32, tf.Shape{diffVocab, diffDim})
	for i := 0; i < table.NumElements(); i++ {
		table.SetFloat(i, float64(i%11)*0.125-0.5)
	}
	ps, wk := g.WithDevice(diffTableTask), g.WithDevice(diffModelTask)
	emb := ps.NewVariableFromTensor("emb", table)
	w := ps.NewVariableFromTensor("head", tf.FromFloat32s(tf.Shape{diffDim, 1}, []float32{0.5, -0.25, 0.75, 1}))
	p := &embeddingProgram{g: g,
		idx: wk.Placeholder("idx", tf.Int32, tf.Shape{diffBatch}),
		y:   wk.Placeholder("y", tf.Float32, tf.Shape{diffBatch, 1}),
	}
	pred := wk.MatMul(wk.Gather(emb.Value(), p.idx), w.Value())
	p.loss = wk.Mean(wk.Square(wk.Sub(pred, p.y)), nil, false)
	grads, err := wk.Gradients([]tf.Output{p.loss}, []tf.Output{emb.Value(), w.Value()})
	if err != nil {
		t.Fatal(err)
	}
	if grads[0].Sparse == nil || !grads[1].Dense.Valid() {
		t.Fatalf("gradients = %+v; want a sparse one for the table and a dense one for the head", grads)
	}
	rate := wk.Const(float32(0.25))
	p.updates = []*tf.Operation{
		emb.ScatterSub(grads[0].Sparse.Indices, wk.Mul(grads[0].Sparse.Values, rate)),
		w.AssignSub(wk.Mul(grads[1].Dense, rate)),
	}
	p.state = []tf.Output{emb.Value(), w.Value()}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// feeds returns step s's batch; ids repeat within a batch and across steps.
func (p *embeddingProgram) feeds(s int) map[tf.Output]*tf.Tensor {
	ids, ys := make([]int32, diffBatch), make([]float32, diffBatch)
	for i := range ids {
		ids[i] = int32((s*5 + i*i*3) % diffVocab)
		ys[i] = float32(ids[i]%4) * 0.5
	}
	return map[tf.Output]*tf.Tensor{
		p.idx: tf.FromInt32s(tf.Shape{diffBatch}, ids),
		p.y:   tf.FromFloat32s(tf.Shape{diffBatch, 1}, ys),
	}
}

// stepRunner is tf.Session.Run's shape; onMaster gives a master the same.
type stepRunner func(feeds map[tf.Output]*tf.Tensor, fetches []tf.Output, targets ...*tf.Operation) ([]*tf.Tensor, error)

// onMaster builds a master over g on an in-process cluster of the given
// shape and returns its Run behind tf-level arguments.
func onMaster(t *testing.T, g *tf.Graph, spec distributed.ClusterSpec, opts distributed.MasterOptions) stepRunner {
	t.Helper()
	master, err := distributed.NewMaster(g.Raw(), spec, distributed.NewInProcCluster(spec).Resolver(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return func(feeds map[tf.Output]*tf.Tensor, fetches []tf.Output, targets ...*tf.Operation) ([]*tf.Tensor, error) {
		f := map[graph.Endpoint]*tf.Tensor{}
		for o, v := range feeds {
			f[o.Unwrap()] = v
		}
		eps := make([]graph.Endpoint, len(fetches))
		for i, o := range fetches {
			eps[i] = o.Unwrap()
		}
		nodes := make([]*graph.Node, len(targets))
		for i, op := range targets {
			nodes[i] = op.Node()
		}
		return master.Run(f, eps, nodes, nil)
	}
}

// train initializes, runs five steps and returns every loss followed by
// every element of the final state.
func (p *embeddingProgram) train(t *testing.T, run stepRunner) []float64 {
	t.Helper()
	if _, err := run(nil, nil, p.g.InitOp()); err != nil {
		t.Fatal(err)
	}
	var trace []float64
	for s := 0; s < 5; s++ {
		out, err := run(p.feeds(s), []tf.Output{p.loss}, p.updates...)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		trace = append(trace, out[0].FloatAt(0))
	}
	final, err := run(nil, p.state)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range final {
		for i := 0; i < v.NumElements(); i++ {
			trace = append(trace, v.FloatAt(i))
		}
	}
	return trace
}

// sparseLookups lists the graph's live Gathers that read a variable in place.
func sparseLookups(g *tf.Graph) []string {
	var names []string
	for _, n := range g.Raw().Nodes() {
		if n.Op() == "Gather" && !n.Dead() && n.Input(0).Spec().IsRef {
			names = append(names, n.Name())
		}
	}
	return names
}

func TestEmbeddingTrainingMatchesAcrossPaths(t *testing.T) {
	traces := map[string][]float64{}
	for name, opts := range map[string]tf.SessionOptions{"optimized": {}, "unoptimized": {DisableOptimizations: true}} {
		p := buildEmbeddingProgram(t)
		sess, err := tf.NewSession(p.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		traces[name] = p.train(t, sess.Run)
		sess.Close()
		if got := len(sparseLookups(p.g)); got != map[string]int{"optimized": 1, "unoptimized": 0}[name] {
			t.Errorf("%s session: %d lookups read the table in place", name, got)
		}
	}

	p := buildEmbeddingProgram(t)
	traces["partitioned"] = p.train(t, onMaster(t, p.g, distributed.ClusterSpec{"worker": make([]string, 2)}, distributed.MasterOptions{}))
	if got := sparseLookups(p.g); len(got) != 1 || !strings.HasSuffix(got[0], "/sparse") {
		t.Errorf("master: lookups reading the table in place = %v, want the one the pass added", got)
	}

	want := traces["unoptimized"]
	if want[0] == want[4] {
		t.Fatalf("the reference did not train: losses %v", want[:5])
	}
	for name, got := range traces {
		if !slices.Equal(got, want) {
			t.Errorf("%s ≠ unoptimized:\n got %v\nwant %v", name, got, want)
		}
	}
}
