package nn_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/placement"
	"repro/tf"
	"repro/tf/nn"
)

// TestShardedLookupRunsOnItsShards holds ShardedEmbedding's doc comment to
// its word ("each shard's traffic goes to the task that owns it"): a Lookup
// built under a worker scope reads every shard in place on the shard's own
// task — Figure 3's colocated Gather — and differentiates on the worker.
func TestShardedLookupRunsOnItsShards(t *testing.T) {
	const vocab, dim, batch, shards = 64, 8, 12, 2
	worker := "/job:worker/task:0"
	g := tf.NewGraph()
	emb, err := nn.NewShardedEmbedding(g, "emb", vocab, dim, shards,
		func(s int) string { return distributed.TaskName("ps", s) })
	if err != nil {
		t.Fatal(err)
	}
	wk := g.WithDevice(worker)
	ids := wk.Placeholder("ids", tf.Int32, tf.Shape{batch})
	loss := wk.Sum(wk.Square(emb.Lookup(wk, ids)), nil, false)
	xs := make([]tf.Output, shards)
	for s, v := range emb.Shards {
		xs[s] = v.Value()
	}
	grads, err := wk.Gradients([]tf.Output{loss}, xs)
	if err != nil {
		t.Fatal(err)
	}
	fetches := []graph.Endpoint{loss.Unwrap()}
	for s, gr := range grads {
		if gr.Sparse == nil {
			t.Fatalf("shard %d: gradient is not sparse: %+v", s, gr)
		}
		fetches = append(fetches, gr.Sparse.Indices.Unwrap(), gr.Sparse.Values.Unwrap())
	}

	// Compile the step as a master does, defaulting to a PS task so nothing
	// is on the worker by accident.
	raw := g.Raw()
	res, err := graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{}).Run(raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparse != shards {
		t.Fatalf("the pipeline rewired %d lookups onto their variables, want %d (a shard's row count is dynamic: nothing to refuse on)", res.Sparse, shards)
	}
	feeds := []graph.Endpoint{ids.Unwrap()}
	set, err := graph.Prune(raw, feeds, fetches, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := distributed.ClusterSpec{"ps": make([]string, shards), "worker": make([]string, 1)}
	devices := spec.Devices()
	asg, err := placement.Place(raw, set, devices, devices[0])
	if err != nil {
		t.Fatal(err)
	}
	on := func(n *graph.Node) string { return strings.TrimSuffix(asg[n.ID()].String(), "/device:CPU:0") }

	lookups := map[string]string{} // variable → task of the Gather reading it
	for id := range set {
		n := raw.Node(id)
		switch {
		case n.Op() == "Read":
			t.Errorf("the step still snapshots %s (%s)", n.Input(0).Node.Name(), n.Name())
		case n.Op() == "Gather" && n.Input(0).Spec().IsRef:
			lookups[n.Input(0).Node.Name()] = on(n)
		case n.Op() == "Variable":
		case on(n) != worker:
			t.Errorf("%s (%s) is on %s; only the shards and their lookups belong off the worker", n.Name(), n.Op(), on(n))
		}
	}
	for s, v := range emb.Shards {
		if got, want := lookups[v.Name()], distributed.TaskName("ps", s); got != want {
			t.Errorf("shard %d is read on %q, want its own task %s", s, got, want)
		}
		values := grads[s].Sparse.Values.Unwrap().Node
		if values.Op() != "Reshape" || on(values) != worker {
			t.Errorf("shard %d: gradient values come from %s on %s, want a Reshape on %s", s, values.Op(), on(values), worker)
		}
	}

	// And the step runs that way: a master over a real (in-process) cluster.
	master, err := distributed.NewMaster(raw, spec, distributed.NewInProcCluster(spec).Resolver(), distributed.MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := master.Run(nil, nil, []*graph.Node{g.InitOp().Node()}, nil); err != nil {
		t.Fatal(err)
	}
	idv := make([]int32, batch)
	for i := range idv {
		idv[i] = int32(i * 5 % vocab)
	}
	out, err := master.Run(map[graph.Endpoint]*tf.Tensor{ids.Unwrap(): tf.FromInt32s(tf.Shape{batch}, idv)}, fetches, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for s := 0; s < shards; s++ {
		idx, vals := out[1+2*s], out[2+2*s]
		if !vals.Shape().Equal(tf.Shape{idx.NumElements(), dim}) {
			t.Errorf("shard %d: %v indices with values %v", s, idx.Shape(), vals.Shape())
		}
		rows += idx.NumElements()
	}
	if rows != batch || out[0].FloatAt(0) <= 0 {
		t.Errorf("the step touched %d rows for %d ids, loss %v", rows, batch, fmt.Sprint(out[0].FloatAt(0)))
	}
}
