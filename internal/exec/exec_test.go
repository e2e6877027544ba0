package exec_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	_ "repro/internal/ops"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
)

func addNode(t *testing.T, g *graph.Graph, op string, ins []graph.Endpoint, args graph.NodeArgs) *graph.Node {
	t.Helper()
	n, err := g.AddNode(op, ins, args)
	if err != nil {
		t.Fatalf("AddNode(%s): %v", op, err)
	}
	return n
}

func runOnce(t *testing.T, ex *exec.Executable, feeds []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	out, err := ex.Run(exec.RunParams{
		FeedValues: feeds,
		Resources:  device.NewResourceManager(),
		Rendezvous: rendezvous.NewLocal(),
		StepID:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompilePrunesToFetches(t *testing.T) {
	g := graph.New()
	a := addNode(t, g, "Const", nil, graph.NodeArgs{Name: "a", Attrs: map[string]any{"value": tensor.Scalar(1)}})
	b := addNode(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "b"})
	addNode(t, g, "Square", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "unused"})
	ex, err := exec.Compile(g, nil, []graph.Endpoint{b.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumNodes() != 2 {
		t.Errorf("compiled %d nodes, want 2 after pruning", ex.NumNodes())
	}
	out := runOnce(t, ex, nil)
	if out[0].FloatAt(0) != -1 {
		t.Errorf("result = %v", out[0])
	}
}

func TestCompileErrors(t *testing.T) {
	g := graph.New()
	a := addNode(t, g, "Const", nil, graph.NodeArgs{Name: "a", Attrs: map[string]any{"value": tensor.Scalar(1)}})
	// Duplicate feed.
	if _, err := exec.Compile(g, []graph.Endpoint{a.Out(0), a.Out(0)}, nil, nil, "CPU"); err == nil {
		t.Error("duplicate feed accepted")
	}
	// A feed or fetch endpoint that is not an output of a node of this graph
	// (they arrive as text on a worker's RegisterGraph) must stop here:
	// nothing after Compile checks the index again.
	foreign := addNode(t, graph.New(), "Const", nil, graph.NodeArgs{Name: "a", Attrs: map[string]any{"value": tensor.Scalar(1)}})
	for _, ep := range []graph.Endpoint{a.Out(7), a.Out(1), a.Out(-1), {}, foreign.Out(0)} {
		if _, err := exec.Compile(g, nil, []graph.Endpoint{ep}, nil, "CPU"); err == nil {
			t.Errorf("fetch of %v (index %d) accepted", ep, ep.Index)
		}
		if _, err := exec.Compile(g, []graph.Endpoint{ep}, []graph.Endpoint{a.Out(0)}, nil, "CPU"); err == nil {
			t.Errorf("feed of %v (index %d) accepted", ep, ep.Index)
		}
	}
	// A loop-body node that consumes an outer-frame value without an Enter
	// can never fire: its inputs are delivered to different (frame,
	// iteration) addresses. The static frame assignment must reject the
	// graph, naming the node and both frames, instead of leaving Run to
	// report a fetch that "was never produced".
	x := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	enter := addNode(t, g, "Enter", []graph.Endpoint{x.Out(0)}, graph.NodeArgs{Attrs: map[string]any{"frame_name": "loop"}})
	merge := addNode(t, g, "Merge", []graph.Endpoint{enter.Out(0)}, graph.NodeArgs{})
	limit := addNode(t, g, "Enter", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"frame_name": "loop", "is_constant": true},
	})
	pred := addNode(t, g, "Less", []graph.Endpoint{merge.Out(0), limit.Out(0)}, graph.NodeArgs{})
	cond := addNode(t, g, "LoopCond", []graph.Endpoint{pred.Out(0)}, graph.NodeArgs{})
	sw := addNode(t, g, "Switch", []graph.Endpoint{merge.Out(0), cond.Out(0)}, graph.NodeArgs{})
	exit := addNode(t, g, "Exit", []graph.Endpoint{sw.Out(0)}, graph.NodeArgs{})
	body := addNode(t, g, "Add", []graph.Endpoint{sw.Out(1), a.Out(0)}, graph.NodeArgs{Name: "body/add"}) // a is not entered
	next := addNode(t, g, "NextIteration", []graph.Endpoint{body.Out(0)}, graph.NodeArgs{})
	if err := g.AddBackEdge(merge, next.Out(0)); err != nil {
		t.Fatal(err)
	}
	_, err := exec.Compile(g, []graph.Endpoint{x.Out(0)}, []graph.Endpoint{exit.Out(0)}, nil, "CPU")
	if err == nil {
		t.Fatal("loop body consuming an outer-frame value without an Enter was accepted")
	}
	for _, want := range []string{"body/add", "frame loop", "frame <root>"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("compile error %q does not mention %q", err, want)
		}
	}
	// An Exit whose input never entered a frame has no frame to leave.
	stray := addNode(t, g, "Exit", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "stray"})
	if _, err := exec.Compile(g, nil, []graph.Endpoint{stray.Out(0)}, nil, "CPU"); err == nil {
		t.Error("Exit outside any loop frame accepted")
	}
}

func TestRunValidatesFeeds(t *testing.T) {
	g := graph.New()
	ph := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{2}},
	})
	n := addNode(t, g, "Neg", []graph.Endpoint{ph.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, []graph.Endpoint{ph.Out(0)}, []graph.Endpoint{n.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	// Wrong count.
	if _, err := ex.Run(exec.RunParams{Resources: rm}); err == nil {
		t.Error("missing feed value accepted")
	}
	// Wrong dtype.
	if _, err := ex.Run(exec.RunParams{
		FeedValues: []*tensor.Tensor{tensor.ScalarInt(1)}, Resources: rm,
	}); err == nil {
		t.Error("wrong feed dtype accepted")
	}
	// Wrong shape.
	if _, err := ex.Run(exec.RunParams{
		FeedValues: []*tensor.Tensor{tensor.Scalar(1)}, Resources: rm,
	}); err == nil {
		t.Error("wrong feed shape accepted")
	}
}

func TestKernelErrorAbortsStep(t *testing.T) {
	g := graph.New()
	// Division is fine; an out-of-range Gather index errors at runtime.
	params := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "p", Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{2, 1}, []float32{1, 2})},
	})
	idx := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "i", Attrs: map[string]any{"value": tensor.FromInt32s(tensor.Shape{1}, []int32{7})},
	})
	gather := addNode(t, g, "Gather", []graph.Endpoint{params.Out(0), idx.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, nil, []graph.Endpoint{gather.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(exec.RunParams{Resources: device.NewResourceManager()}); err == nil {
		t.Error("runtime kernel error not surfaced")
	}
}

func TestExternalAbortCancelsBlockedStep(t *testing.T) {
	g := graph.New()
	q := addNode(t, g, "FIFOQueue", nil, graph.NodeArgs{
		Name: "q", Attrs: map[string]any{
			"capacity":        1,
			"component_types": []tensor.DType{tensor.Float32},
			"shapes":          []tensor.Shape{{}},
		},
	})
	deq := addNode(t, g, "QueueDequeue", []graph.Endpoint{q.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"component_types": []tensor.DType{tensor.Float32}, "shapes": []tensor.Shape{{}}},
	})
	ex, err := exec.Compile(g, nil, []graph.Endpoint{deq.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := ex.Run(exec.RunParams{
			Resources: device.NewResourceManager(),
			StepID:    1,
			Abort:     abort,
		})
		done <- err
	}()
	close(abort)
	if err := <-done; err == nil {
		t.Error("blocked dequeue survived an external abort")
	}
}

func TestConcurrentStepsShareOneExecutable(t *testing.T) {
	g := graph.New()
	v := addNode(t, g, "Variable", nil, graph.NodeArgs{
		Name: "ctr", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	zero := addNode(t, g, "Const", nil, graph.NodeArgs{Name: "z", Attrs: map[string]any{"value": tensor.Scalar(0)}})
	assign := addNode(t, g, "Assign", []graph.Endpoint{v.Out(0), zero.Out(0)}, graph.NodeArgs{})
	one := addNode(t, g, "Const", nil, graph.NodeArgs{Name: "one", Attrs: map[string]any{"value": tensor.Scalar(1)}})
	inc := addNode(t, g, "AssignAdd", []graph.Endpoint{v.Out(0), one.Out(0)}, graph.NodeArgs{})

	rm := device.NewResourceManager()
	initEx, err := exec.Compile(g, nil, nil, []*graph.Node{assign}, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := initEx.Run(exec.RunParams{Resources: rm}); err != nil {
		t.Fatal(err)
	}
	incEx, err := exec.Compile(g, nil, []graph.Endpoint{inc.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 64
	var wg sync.WaitGroup
	for i := 0; i < steps; i++ {
		wg.Add(1)
		go func(step int) {
			defer wg.Done()
			if _, err := incEx.Run(exec.RunParams{Resources: rm, StepID: int64(step + 10)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	readN := addNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{})
	readEx, err := exec.Compile(g, nil, []graph.Endpoint{readN.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	out, err := readEx.Run(exec.RunParams{Resources: rm})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != steps {
		t.Errorf("counter = %v, want %d", out[0], steps)
	}
}

func TestDeadBranchSkipsKernels(t *testing.T) {
	// The untaken branch of a Switch must not execute its kernels: route
	// the dead side into a Gather that would fail if executed.
	g := graph.New()
	pred := addNode(t, g, "Const", nil, graph.NodeArgs{Name: "p", Attrs: map[string]any{"value": tensor.ScalarBool(true)}})
	val := addNode(t, g, "Const", nil, graph.NodeArgs{Name: "v", Attrs: map[string]any{"value": tensor.FromInt32s(tensor.Shape{1}, []int32{9})}})
	sw := addNode(t, g, "Switch", []graph.Endpoint{val.Out(0), pred.Out(0)}, graph.NodeArgs{})
	params := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "params", Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{2, 1}, []float32{1, 2})},
	})
	// Dead side (false output): would gather index 9 — out of range.
	bad := addNode(t, g, "Gather", []graph.Endpoint{params.Out(0), sw.Out(0)}, graph.NodeArgs{Name: "bad"})
	ok := addNode(t, g, "Identity", []graph.Endpoint{sw.Out(1)}, graph.NodeArgs{Name: "ok"})
	m := addNode(t, g, "Merge", []graph.Endpoint{bad.Out(0), ok.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, nil, []graph.Endpoint{m.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	out := runOnce(t, ex, nil)
	if out[0].IntAt(0) != 9 {
		t.Errorf("merge = %v", out[0])
	}
}
