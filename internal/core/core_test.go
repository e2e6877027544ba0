package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// mustNode adds a node or fails the test.
func mustNode(t *testing.T, g *graph.Graph, op string, inputs []graph.Endpoint, args graph.NodeArgs) *graph.Node {
	t.Helper()
	n, err := g.AddNode(op, inputs, args)
	if err != nil {
		t.Fatalf("AddNode(%s): %v", op, err)
	}
	return n
}

func constNode(t *testing.T, g *graph.Graph, name string, v *tensor.Tensor) *graph.Node {
	t.Helper()
	return mustNode(t, g, "Const", nil, graph.NodeArgs{Name: name, Attrs: map[string]any{"value": v}})
}

func TestSessionRunsSimpleArithmetic(t *testing.T) {
	g := graph.New()
	a := constNode(t, g, "a", tensor.Scalar(2))
	b := constNode(t, g, "b", tensor.Scalar(3))
	sum := mustNode(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	prod := mustNode(t, g, "Mul", []graph.Endpoint{sum.Out(0), b.Out(0)}, graph.NodeArgs{})

	sess := NewSession(g, Options{})
	out, err := sess.Run(nil, []graph.Endpoint{prod.Out(0), sum.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 15 || out[1].FloatAt(0) != 5 {
		t.Errorf("got %v and %v", out[0], out[1])
	}
}

func TestSessionFeedsPlaceholder(t *testing.T) {
	g := graph.New()
	x := mustNode(t, g, "Placeholder", nil, graph.NodeArgs{Name: "x", Attrs: map[string]any{
		"dtype": tensor.Float32, "shape": tensor.Shape{2},
	}})
	two := constNode(t, g, "two", tensor.Scalar(2))
	y := mustNode(t, g, "Mul", []graph.Endpoint{x.Out(0), two.Out(0)}, graph.NodeArgs{})

	sess := NewSession(g, Options{})
	out, err := sess.Run(
		map[graph.Endpoint]*tensor.Tensor{x.Out(0): tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 4})},
		[]graph.Endpoint{y.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Float32s(); got[0] != 2 || got[1] != 8 {
		t.Errorf("got %v", got)
	}

	// Unfed placeholder on a needed path must error.
	if _, err := sess.Run(nil, []graph.Endpoint{y.Out(0)}, nil); err == nil {
		t.Error("running with unfed placeholder should fail")
	}
}

func TestSessionVariableLifecycle(t *testing.T) {
	g := graph.New()
	v := mustNode(t, g, "Variable", nil, graph.NodeArgs{Name: "w", Attrs: map[string]any{
		"dtype": tensor.Float32, "shape": tensor.Shape{2},
	}})
	read := mustNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{})

	sess := NewSession(g, Options{})
	// Reading before initialization fails.
	if _, err := sess.Run(nil, []graph.Endpoint{read.Out(0)}, nil); err == nil {
		t.Fatal("reading uninitialized variable should fail")
	}

	init := constNode(t, g, "init", tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 2}))
	assign := mustNode(t, g, "Assign", []graph.Endpoint{v.Out(0), init.Out(0)}, graph.NodeArgs{})
	if _, err := sess.Run(nil, nil, []*graph.Node{assign}); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run(nil, []graph.Endpoint{read.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Float32s(); got[0] != 1 || got[1] != 2 {
		t.Errorf("after init read = %v", got)
	}

	// AssignAdd mutates shared state across steps (§3.1).
	delta := constNode(t, g, "delta", tensor.FromFloat32s(tensor.Shape{2}, []float32{10, 10}))
	add := mustNode(t, g, "AssignAdd", []graph.Endpoint{v.Out(0), delta.Out(0)}, graph.NodeArgs{})
	for i := 0; i < 3; i++ {
		if _, err := sess.Run(nil, nil, []*graph.Node{add}); err != nil {
			t.Fatal(err)
		}
	}
	out, err = sess.Run(nil, []graph.Endpoint{read.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Float32s(); got[0] != 31 || got[1] != 32 {
		t.Errorf("after 3 AssignAdd = %v", got)
	}
}

func TestSessionSubgraphCaching(t *testing.T) {
	g := graph.New()
	a := constNode(t, g, "a", tensor.Scalar(1))
	b := mustNode(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{})
	sess := NewSession(g, Options{})
	for i := 0; i < 5; i++ {
		if _, err := sess.Run(nil, []graph.Endpoint{b.Out(0)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := sess.CachedSubgraphs(); got != 1 {
		t.Errorf("cache has %d entries, want 1", got)
	}
	if _, err := sess.Run(nil, []graph.Endpoint{a.Out(0)}, nil); err != nil {
		t.Fatal(err)
	}
	if got := sess.CachedSubgraphs(); got != 2 {
		t.Errorf("cache has %d entries, want 2", got)
	}
}

func TestSessionPruningSkipsUnneededOps(t *testing.T) {
	g := graph.New()
	a := constNode(t, g, "a", tensor.Scalar(1))
	// This placeholder is never on the fetched path; if pruning failed,
	// its kernel would error the step.
	ph := mustNode(t, g, "Placeholder", nil, graph.NodeArgs{Attrs: map[string]any{"dtype": tensor.Float32}})
	mustNode(t, g, "Neg", []graph.Endpoint{ph.Out(0)}, graph.NodeArgs{})
	b := mustNode(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{})

	sess := NewSession(g, Options{})
	out, err := sess.Run(nil, []graph.Endpoint{b.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != -1 {
		t.Errorf("got %v", out[0])
	}
}

func TestSessionConcurrentSteps(t *testing.T) {
	g := graph.New()
	v := mustNode(t, g, "Variable", nil, graph.NodeArgs{Name: "ctr", Attrs: map[string]any{
		"dtype": tensor.Float32, "shape": tensor.ScalarShape(),
	}})
	zero := constNode(t, g, "zero", tensor.Scalar(0))
	assign := mustNode(t, g, "Assign", []graph.Endpoint{v.Out(0), zero.Out(0)}, graph.NodeArgs{})
	one := constNode(t, g, "one", tensor.Scalar(1))
	inc := mustNode(t, g, "AssignAdd", []graph.Endpoint{v.Out(0), one.Out(0)}, graph.NodeArgs{})
	read := mustNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{})

	sess := NewSession(g, Options{})
	if _, err := sess.Run(nil, nil, []*graph.Node{assign}); err != nil {
		t.Fatal(err)
	}
	// Many concurrent steps mutate shared state (§3.2). AssignAdd holds
	// the variable lock per update, so no increment may be lost.
	const steps = 100
	var wg sync.WaitGroup
	errs := make(chan error, steps)
	for i := 0; i < steps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Run(nil, nil, []*graph.Node{inc}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	out, err := sess.Run(nil, []graph.Endpoint{read.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != steps {
		t.Errorf("counter = %v, want %d", out[0].FloatAt(0), steps)
	}
}

func TestSessionControlDependencies(t *testing.T) {
	g := graph.New()
	v := mustNode(t, g, "Variable", nil, graph.NodeArgs{Name: "v", Attrs: map[string]any{
		"dtype": tensor.Float32, "shape": tensor.ScalarShape(),
	}})
	ten := constNode(t, g, "ten", tensor.Scalar(10))
	assign := mustNode(t, g, "Assign", []graph.Endpoint{v.Out(0), ten.Out(0)}, graph.NodeArgs{})
	// Read must observe the assignment because of the control edge.
	read := mustNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Control: []*graph.Node{assign}})

	sess := NewSession(g, Options{})
	out, err := sess.Run(nil, []graph.Endpoint{read.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 10 {
		t.Errorf("read = %v, want 10", out[0])
	}
}

func TestSessionCSEAndFoldingPreserveSemantics(t *testing.T) {
	g := graph.New()
	a := constNode(t, g, "a", tensor.Scalar(3))
	b := constNode(t, g, "b", tensor.Scalar(4))
	// Two identical Adds: CSE merges them. Their sum is const-foldable.
	add1 := mustNode(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	add2 := mustNode(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	prod := mustNode(t, g, "Mul", []graph.Endpoint{add1.Out(0), add2.Out(0)}, graph.NodeArgs{})

	sess := NewSession(g, Options{Optimize: true})
	out, err := sess.Run(nil, []graph.Endpoint{prod.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 49 {
		t.Errorf("optimized result = %v, want 49", out[0])
	}
	// Fetching the folded endpoints directly still works via remapping.
	out, err = sess.Run(nil, []graph.Endpoint{add2.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 7 {
		t.Errorf("remapped fetch = %v, want 7", out[0])
	}
}

func TestSessionFetchErrors(t *testing.T) {
	g := graph.New()
	v := mustNode(t, g, "Variable", nil, graph.NodeArgs{Name: "v", Attrs: map[string]any{
		"dtype": tensor.Float32, "shape": tensor.Shape{1},
	}})
	sess := NewSession(g, Options{})
	// Fetching a reference output directly is an error; Read is required.
	if _, err := sess.Run(nil, []graph.Endpoint{v.Out(0)}, nil); err == nil {
		t.Error("fetching a ref edge should fail")
	}
}

func TestSessionManyParallelOpsStress(t *testing.T) {
	g := graph.New()
	// A wide fan-in: 200 constants summed pairwise then through AddN.
	eps := make([]graph.Endpoint, 0, 200)
	for i := 0; i < 200; i++ {
		c := constNode(t, g, fmt.Sprintf("c%d", i), tensor.Scalar(1))
		eps = append(eps, c.Out(0))
	}
	sum := mustNode(t, g, "AddN", eps, graph.NodeArgs{})
	sess := NewSession(g, Options{})
	out, err := sess.Run(nil, []graph.Endpoint{sum.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 200 {
		t.Errorf("wide AddN = %v", out[0])
	}
}

// TestExecutableKeepsFeedOrder: an executable takes its feed values in the
// order its feeds were given, so the same feeds in another order must give
// another executable, not the first one's with the values swapped.
func TestExecutableKeepsFeedOrder(t *testing.T) {
	g := graph.New()
	placeholder := func(name string) *graph.Node {
		return mustNode(t, g, "Placeholder", nil, graph.NodeArgs{Name: name, Attrs: map[string]any{
			"dtype": tensor.Float32, "shape": tensor.ScalarShape(),
		}})
	}
	a, b := placeholder("a"), placeholder("b")
	diff := mustNode(t, g, "Sub", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})

	sess := NewSession(g, Options{})
	for step, feeds := range [][]graph.Endpoint{{a.Out(0), b.Out(0)}, {b.Out(0), a.Out(0)}} {
		ex, err := sess.Executable(feeds, []graph.Endpoint{diff.Out(0)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		vals := map[graph.Endpoint]*tensor.Tensor{a.Out(0): tensor.Scalar(5), b.Out(0): tensor.Scalar(2)}
		out, err := ex.Run(exec.RunParams{
			FeedValues: []*tensor.Tensor{vals[feeds[0]], vals[feeds[1]]},
			Resources:  sess.Device().Resources(),
			StepID:     int64(step + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].FloatAt(0); got != 3 {
			t.Errorf("feeds %v: a-b = %v, want 3", feeds, got)
		}
	}
	if got := sess.CachedSubgraphs(); got != 2 {
		t.Errorf("cache has %d entries, want 2", got)
	}
}
