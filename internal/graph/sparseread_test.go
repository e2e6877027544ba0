package graph_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// lookup builds Variable → Read → Gather(·, idx) with the given table and
// index extents, the table's nodes constrained to tableDev and the lookup to
// lookupDev, and returns the three nodes and the index placeholder.
func lookup(t *testing.T, g *graph.Graph, rows, dim, ids int, tableDev, lookupDev string) (v, read, gather, idx *graph.Node) {
	t.Helper()
	v = mustAdd(t, g, "Variable", nil, graph.NodeArgs{Name: "emb", Device: tableDev,
		Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{rows, dim}}})
	read = mustAdd(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "emb/read", Device: tableDev})
	idx = mustAdd(t, g, "Placeholder", nil, graph.NodeArgs{Name: "idx", Device: lookupDev,
		Attrs: map[string]any{"dtype": tensor.Int32, "shape": tensor.Shape{ids}}})
	gather = mustAdd(t, g, "Gather", []graph.Endpoint{read.Out(0), idx.Out(0)}, graph.NodeArgs{Name: "rows", Device: lookupDev})
	return v, read, gather, idx
}

func noFold(*graph.Node, []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return nil, fmt.Errorf("nothing folds in this test")
}

// sparseRead runs the pass alone and returns how many lookups it rewired.
func sparseRead(t *testing.T, g *graph.Graph) (int, *graph.Result) {
	t.Helper()
	res := &graph.Result{Replaced: map[graph.Endpoint]graph.Endpoint{}, Rewired: map[graph.Endpoint]string{}}
	if err := graph.SparseReadPass().Run(g, res); err != nil {
		t.Fatal(err)
	}
	return res.Sparse, res
}

func TestSparseReadRewiresLookupOntoVariable(t *testing.T) {
	g := graph.New()
	v, read, gather, idx := lookup(t, g, 1024, 16, 8, "/job:ps/task:1", "/job:worker/task:0")
	read.SetAttr(graph.ColocationAttr, []string{"emb"})
	readGate := constOf(t, g, "read_gate", 1)
	lookupGate := constOf(t, g, "lookup_gate", 2) // another value, or CSE merges the gates
	g.AddControlEdge(readGate, read)
	g.AddControlEdge(lookupGate, gather)
	g.AddControlEdge(read, gather) // redundant with the data edge; must not keep the snapshot alive
	use := mustAdd(t, g, "Neg", []graph.Endpoint{gather.Out(0)}, graph.NodeArgs{})
	l2 := mustAdd(t, g, "L2Loss", []graph.Endpoint{read.Out(0)}, graph.NodeArgs{})
	gated := mustAdd(t, g, "NoOp", nil, graph.NodeArgs{Control: []*graph.Node{gather}})

	res, err := graph.NewPipeline(noFold, graph.PipelineOptions{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparse != 1 {
		t.Fatalf("Sparse = %d, want 1", res.Sparse)
	}
	sparse := use.Input(0).Node
	if sparse == gather || sparse.Op() != "Gather" || sparse.Input(0) != v.Out(0) || sparse.Input(1) != idx.Out(0) {
		t.Fatalf("consumer reads %v = %s(%v); want a new Gather(emb:0, idx:0)", sparse.Name(), sparse.Op(), sparse.Inputs())
	}
	if !sparse.Out(0).Shape().Equal(tensor.Shape{8, 16}) {
		t.Errorf("rewritten lookup has shape %v, want [8 16]", sparse.Out(0).Shape())
	}
	// It stands where the Read stood, not where the lookup was asked for.
	if sparse.Device() != "/job:ps/task:1" || len(sparse.Colocation()) != 1 || sparse.Colocation()[0] != "emb" {
		t.Errorf("placed by device %q, colocation %v; the Read has %q, [emb]", sparse.Device(), sparse.Colocation(), read.Device())
	}
	// Control inputs of both nodes, each once, and not the Read itself.
	cs := map[string]int{}
	for _, c := range sparse.ControlInputs() {
		cs[c.Name()]++
	}
	if len(cs) != 2 || cs["read_gate"] != 1 || cs["lookup_gate"] != 1 {
		t.Errorf("control inputs = %v, want read_gate and lookup_gate once each", cs)
	}
	// A node gated on the old lookup waits for the new one.
	if cs := gated.ControlInputs(); len(cs) != 1 || cs[0] != sparse {
		t.Errorf("control edge sourced at the old Gather not rehomed: %v", cs)
	}
	// The Read keeps its other consumer; the old Gather is retired.
	if l2.Input(0) != read.Out(0) {
		t.Error("the Read's second consumer was rewired")
	}
	if !gather.Dead() {
		t.Error("the superseded Gather is not marked dead")
	}
	// A fetch of the old lookup follows it; a feed of either bypassed
	// endpoint is refused, naming the endpoint and the pass.
	if got := graph.Remap(res.Replaced, gather.Out(0)); got != sparse.Out(0) {
		t.Errorf("fetch of rows:0 remaps to %v, want %v", got, sparse.Out(0))
	}
	for _, fed := range []graph.Endpoint{gather.Out(0), read.Out(0)} {
		err := res.CheckFeeds([]graph.Endpoint{idx.Out(0), fed})
		if err == nil || !strings.Contains(err.Error(), fed.String()) || !strings.Contains(err.Error(), "sparse-read") {
			t.Errorf("CheckFeeds(%v) = %v; want an error naming the endpoint and the sparse-read pass", fed, err)
		}
	}
	if err := res.CheckFeeds([]graph.Endpoint{idx.Out(0)}); err != nil {
		t.Errorf("feeding the indices: %v", err)
	}

	// Idempotent: a second run finds nothing to do.
	before := g.NumNodes()
	res2, err := graph.NewPipeline(noFold, graph.PipelineOptions{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Sparse != 0 || len(res2.Replaced) != 0 || g.NumNodes() != before {
		t.Errorf("second run: Sparse %d, %d replacements, %d → %d nodes; want none", res2.Sparse, len(res2.Replaced), before, g.NumNodes())
	}
}

// TestSparseReadByteRule: across device constraints the pass compares what
// would cross — rows plus indices against the table — and leaves a lookup
// alone when that is statically no smaller; on one constraint, or with
// sizes it cannot see, it rewrites.
func TestSparseReadByteRule(t *testing.T) {
	const ps, worker = "/job:ps/task:0", "/job:worker/task:0"
	for _, tc := range []struct {
		name                string
		rows, dim, ids      int
		tableDev, lookupDev string
		want                int
	}{
		{"big table, few ids, across devices", 8192, 64, 256, ps, worker, 1},
		{"4-row table gathered 256 times across devices", 4, 64, 256, ps, worker, 0},
		{"the same on one constraint: no traffic either way, one copy saved", 4, 64, 256, ps, ps, 1},
		{"unconstrained local session", 4, 64, 256, "", "", 1},
		{"index count unknown", 8192, 64, -1, ps, worker, 1},
		{"break-even: 3×1 floats + 3 ids against 6 floats", 6, 1, 3, ps, worker, 0},
		{"just under: 2×1 floats + 2 ids against 6 floats", 6, 1, 2, ps, worker, 1},
	} {
		g := graph.New()
		_, _, gather, _ := lookup(t, g, tc.rows, tc.dim, tc.ids, tc.tableDev, tc.lookupDev)
		n, res := sparseRead(t, g)
		if _, moved := res.Replaced[gather.Out(0)]; n != tc.want || moved != (tc.want == 1) {
			t.Errorf("%s: %d rewrites, lookup rewritten = %v; want %d", tc.name, n, moved, tc.want)
		}
	}
}

// TestSparseReadRefusals: a lookup inside a loop frame keeps its frame
// structure, and a lookup whose snapshot a same-step write relies on keeps
// its snapshot.
func TestSparseReadRefusals(t *testing.T) {
	t.Run("loop frame", func(t *testing.T) {
		g := graph.New()
		_, _, gather, _ := lookup(t, g, 1024, 16, 8, "", "")
		gather.SetAttr(graph.FrameAttr, "while_0")
		if n, _ := sparseRead(t, g); n != 0 {
			t.Error("rewrote a Gather that executes inside a loop frame")
		}
	})
	t.Run("write ordered after the Read only", func(t *testing.T) {
		// v ← v·2 is computed from the snapshot the lookup also reads; an
		// in-place lookup could run after the Assign and see the new rows.
		g := graph.New()
		v, read, _, _ := lookup(t, g, 1024, 16, 8, "", "")
		doubled := mustAdd(t, g, "Add", []graph.Endpoint{read.Out(0), read.Out(0)}, graph.NodeArgs{})
		mustAdd(t, g, "Assign", []graph.Endpoint{v.Out(0), doubled.Out(0)}, graph.NodeArgs{})
		if n, _ := sparseRead(t, g); n != 0 {
			t.Error("rewrote a lookup whose table is overwritten after the Read without waiting for the Gather")
		}
	})
	t.Run("write that waits for the lookup", func(t *testing.T) {
		// The training shape: the update is computed from the rows (and, as
		// with a regularizer, from the whole table too).
		g := graph.New()
		v, read, gather, idx := lookup(t, g, 1024, 16, 8, "", "")
		decay := mustAdd(t, g, "Sum", []graph.Endpoint{read.Out(0)}, graph.NodeArgs{})
		step := mustAdd(t, g, "Mul", []graph.Endpoint{gather.Out(0), decay.Out(0)}, graph.NodeArgs{})
		mustAdd(t, g, "ScatterSub", []graph.Endpoint{v.Out(0), idx.Out(0), step.Out(0)}, graph.NodeArgs{})
		if n, _ := sparseRead(t, g); n != 1 {
			t.Error("refused a lookup whose only same-step write consumes its rows")
		}
	})
}

// TestRewiredEndpointsRefuseFeeds: every pass records what it rewired
// consumers away from — merged duplicates, folded producers, the interior of
// a fused chain — and CheckFeeds names the pass.
func TestRewiredEndpointsRefuseFeeds(t *testing.T) {
	g := graph.New()
	x := placeholder(t, g, "x", tensor.ScalarShape())
	one := constOf(t, g, "one", 1)
	a := mustAdd(t, g, "Add", []graph.Endpoint{x.Out(0), one.Out(0)}, graph.NodeArgs{Name: "a"})
	b := mustAdd(t, g, "Add", []graph.Endpoint{x.Out(0), one.Out(0)}, graph.NodeArgs{Name: "b"})
	mustAdd(t, g, "Mul", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	folded := mustAdd(t, g, "Add", []graph.Endpoint{one.Out(0), one.Out(0)}, graph.NodeArgs{Name: "two"})
	mustAdd(t, g, "Neg", []graph.Endpoint{folded.Out(0)}, graph.NodeArgs{})
	mm, bias, relu := denseChain(t, g)
	mustAdd(t, g, "Neg", []graph.Endpoint{relu.Out(0)}, graph.NodeArgs{})

	eval := func(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if n.Name() != "two" {
			return nil, fmt.Errorf("test evaluator only folds two")
		}
		out, err := tensor.Binary(tensor.New, tensor.OpAdd, in[0], in[1])
		return []*tensor.Tensor{out}, err
	}
	res, err := graph.NewPipeline(eval, graph.PipelineOptions{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for ep, pass := range map[graph.Endpoint]string{
		b.Out(0):      "cse",
		folded.Out(0): "fold-constants",
		mm.Out(0):     "fuse",
		bias.Out(0):   "fuse",
		relu.Out(0):   "fuse",
	} {
		err := res.CheckFeeds([]graph.Endpoint{ep})
		if err == nil || !strings.Contains(err.Error(), ep.String()) || !strings.Contains(err.Error(), "the "+pass+" pass") {
			t.Errorf("CheckFeeds(%v) = %v; want an error naming it and the %s pass", ep, err, pass)
		}
	}
	// What the passes left in place stays feedable, the surviving duplicate
	// included.
	if err := res.CheckFeeds([]graph.Endpoint{x.Out(0), a.Out(0), one.Out(0)}); err != nil {
		t.Errorf("feeding endpoints no pass rewired: %v", err)
	}
}

// The pass runs after CSE, so two spellings of one lookup become one in-place
// read, and a fetch of either follows it there.
func TestSparseReadRewritesDuplicateLookupsOnce(t *testing.T) {
	g := graph.New()
	_, read, gather, idx := lookup(t, g, 1024, 16, 8, "/job:ps/task:0", "/job:worker/task:0")
	dup := mustAdd(t, g, "Gather", []graph.Endpoint{read.Out(0), idx.Out(0)}, graph.NodeArgs{Device: gather.Device()})
	sum := mustAdd(t, g, "Add", []graph.Endpoint{gather.Out(0), dup.Out(0)}, graph.NodeArgs{})
	res, err := graph.NewPipeline(noFold, graph.PipelineOptions{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 || res.Sparse != 1 {
		t.Errorf("Merged %d, Sparse %d; want the duplicate merged and one lookup rewired", res.Merged, res.Sparse)
	}
	sparse := sum.Input(0)
	if sum.Input(1) != sparse || !sparse.Node.Input(0).Spec().IsRef {
		t.Errorf("the Add reads %v and %v; want one Gather on the variable's reference", sum.Input(0), sum.Input(1))
	}
	if graph.Remap(res.Replaced, dup.Out(0)) != sparse || graph.Remap(res.Replaced, gather.Out(0)) != sparse {
		t.Error("a fetch of either spelling does not follow it to the in-place read")
	}
}
