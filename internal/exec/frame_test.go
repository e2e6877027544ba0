package exec_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	_ "repro/internal/ops"
	"repro/internal/tensor"
)

// buildLoopGraph hand-builds the frame skeleton of `while (v < limit) v +=
// 1` around a fed initial value: Enter → Merge → Switch(LoopCond) →
// {Exit, body Add} → NextIteration, with the limit and increment captured
// through constant Enters (delivered per iteration, as tf.While does). The
// body threads `depth` extra Identity nodes so the per-iteration state the
// frame-aware path manages is wider than a single node.
func buildLoopGraph(t *testing.T, limit float32, depth int) (*graph.Graph, graph.Endpoint, graph.Endpoint) {
	t.Helper()
	g := graph.New()
	x := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	enter := addNode(t, g, "Enter", []graph.Endpoint{x.Out(0)}, graph.NodeArgs{
		Name: "loop/enter", Attrs: map[string]any{"frame_name": "loop"},
	})
	merge := addNode(t, g, "Merge", []graph.Endpoint{enter.Out(0)}, graph.NodeArgs{Name: "loop/merge"})
	limitC := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "limit", Attrs: map[string]any{"value": tensor.Scalar(limit)},
	})
	limitEnter := addNode(t, g, "Enter", []graph.Endpoint{limitC.Out(0)}, graph.NodeArgs{
		Name: "loop/limit", Attrs: map[string]any{"frame_name": "loop", "is_constant": true},
	})
	oneC := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "one", Attrs: map[string]any{"value": tensor.Scalar(1)},
	})
	oneEnter := addNode(t, g, "Enter", []graph.Endpoint{oneC.Out(0)}, graph.NodeArgs{
		Name: "loop/one", Attrs: map[string]any{"frame_name": "loop", "is_constant": true},
	})
	pred := addNode(t, g, "Less", []graph.Endpoint{merge.Out(0), limitEnter.Out(0)}, graph.NodeArgs{})
	loopCond := addNode(t, g, "LoopCond", []graph.Endpoint{pred.Out(0)}, graph.NodeArgs{})
	sw := addNode(t, g, "Switch", []graph.Endpoint{merge.Out(0), loopCond.Out(0)}, graph.NodeArgs{})
	exit := addNode(t, g, "Exit", []graph.Endpoint{sw.Out(0)}, graph.NodeArgs{})
	cur := sw.Out(1)
	for i := 0; i < depth; i++ {
		cur = addNode(t, g, "Identity", []graph.Endpoint{cur}, graph.NodeArgs{}).Out(0)
	}
	body := addNode(t, g, "Add", []graph.Endpoint{cur, oneEnter.Out(0)}, graph.NodeArgs{})
	next := addNode(t, g, "NextIteration", []graph.Endpoint{body.Out(0)}, graph.NodeArgs{})
	if err := g.AddBackEdge(merge, next.Out(0)); err != nil {
		t.Fatal(err)
	}
	return g, x.Out(0), exit.Out(0)
}

// loopResult mirrors the loop on the host: v += 1 until v >= limit.
func loopResult(x, limit float32) float32 {
	for x < limit {
		x++
	}
	return x
}

// TestFramePathConcurrentStepsIsolate hammers one frame-aware Executable
// with concurrent steps over distinct feeds and StepIDs, interleaved with
// externally aborted steps. Pooled frame instances and iteration states
// must never leak loop state between steps; run it under -race (the
// CI gate does) to catch unsynchronized reuse.
func TestFramePathConcurrentStepsIsolate(t *testing.T) {
	g, feedEP, fetchEP := buildLoopGraph(t, 10, 2)
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Distinct fractional feeds give every step a distinct exit
				// value and a trip count of 5-10 iterations.
				feed := float32(r%6) + float32(gi)/float32(goroutines+1)
				want := loopResult(feed, 10)
				p := exec.RunParams{
					FeedValues: []*tensor.Tensor{tensor.Scalar(feed)},
					Resources:  rm,
					StepID:     int64(gi*rounds + r + 1),
				}
				if r%5 == 4 {
					abort := make(chan struct{})
					close(abort)
					p.Abort = abort
					// A pre-closed abort may still lose the race with a fast
					// step; only a wrong value is a leak.
					if out, err := ex.Run(p); err == nil {
						if got := out[0].FloatAt(0); got != float64(want) {
							select {
							case errs <- fmt.Errorf("aborted step %d: exit %v, want %v (cross-step leak)", p.StepID, got, want):
							default:
							}
							return
						}
					}
					continue
				}
				out, err := ex.Run(p)
				if err != nil {
					select {
					case errs <- fmt.Errorf("step %d: %v", p.StepID, err):
					default:
					}
					return
				}
				if got := out[0].FloatAt(0); got != float64(want) {
					select {
					case errs <- fmt.Errorf("step %d: exit %v, want %v (cross-step leak)", p.StepID, got, want):
					default:
					}
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFramePathSequentialReuse checks back-to-back frame-aware steps on one
// executable — the training-loop shape that exercises recycled frame state
// the hardest — with feeds (and so trip counts) changing every iteration.
func TestFramePathSequentialReuse(t *testing.T) {
	g, feedEP, fetchEP := buildLoopGraph(t, 10, 1)
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	for i := 0; i < 150; i++ {
		feed := float32(i%9) + 0.25
		want := loopResult(feed, 10)
		out, err := ex.Run(exec.RunParams{
			FeedValues: []*tensor.Tensor{tensor.Scalar(feed)},
			Resources:  rm,
			StepID:     int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].FloatAt(0); got != float64(want) {
			t.Fatalf("iteration %d: exit %v, want %v", i, got, want)
		}
	}
}

// TestFramePathStepAllocations pins the frame-aware path's steady-state
// allocation behavior, mirroring TestFastPathStepAllocations: with pooled
// steps, recycled frame instances and iteration states reset by copy, the
// executor itself allocates nothing per node execution, and the kernels'
// outputs (an Add result per iteration here, carried to the next one) come
// from the free list. What is left is a fixed handful per step.
func TestFramePathStepAllocations(t *testing.T) {
	const depth = 16
	const limit = 32 // iterations per step
	g, feedEP, fetchEP := buildLoopGraph(t, limit, depth)
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	p := exec.RunParams{FeedValues: []*tensor.Tensor{tensor.Scalar(0)}, Resources: rm, StepID: 1}
	for i := 0; i < 4; i++ {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	// Executions inside the frame per step: every iteration runs the loop
	// skeleton plus the Identity chain; this is the denominator the budget
	// is quoted against (exact node count matters less than staying flat).
	nodeExecs := float64(limit * (depth + 8))
	avg := testing.AllocsPerRun(50, func() {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	perExec := avg / nodeExecs
	t.Logf("allocs/run = %.1f over ~%d node executions (%.3f allocs/exec)", avg, int(nodeExecs), perExec)
	if perExec > 0.25 {
		t.Errorf("frame-path step allocates %.3f allocs/node-execution (budget 0.25): per-iteration garbage crept back in", perExec)
	}
}

// TestFailedStepDropsItsStacks: a step that pushes onto gradient stacks and
// then fails must not leak the pushed tensors — the executor drops the
// step's stacks on the error path (a backward loop that never ran cannot
// drain them).
func TestFailedStepDropsItsStacks(t *testing.T) {
	g := graph.New()
	v := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "v", Attrs: map[string]any{"value": tensor.Scalar(1)},
	})
	tok := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "tok", Attrs: map[string]any{"value": tensor.ScalarInt(0)},
	})
	push := addNode(t, g, "StackPush", []graph.Endpoint{v.Out(0), tok.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"stack": "saved"},
	})
	// After the push, fail the step deterministically: gather an
	// out-of-range index (the push output sequences the gather after it).
	params := addNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "params", Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{1, 1}, []float32{1})},
	})
	bad := addNode(t, g, "Gather", []graph.Endpoint{params.Out(0), push.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, nil, []graph.Endpoint{bad.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	if _, err := ex.Run(exec.RunParams{Resources: rm, StepID: 42}); err == nil {
		t.Fatal("step with out-of-range gather should fail")
	}
	if names := rm.StackNames(); len(names) != 0 {
		t.Errorf("failed step leaked stacks: %v", names)
	}
}

// TestIterationStatesRetire: a 10 000-trip loop must hold state only for the
// iterations in flight. An iteration is recycled as soon as it and its
// predecessors are quiescent, so the whole run allocates a handful of
// iteration states (the root's, and a few for the loop), not one per trip.
func TestIterationStatesRetire(t *testing.T) {
	const trips = 10000
	g, feedEP, fetchEP := buildLoopGraph(t, trips, 2)
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(exec.RunParams{
		FeedValues: []*tensor.Tensor{tensor.Scalar(0)},
		Resources:  device.NewResourceManager(),
		StepID:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].FloatAt(0); got != trips {
		t.Fatalf("exit %v, want %d", got, trips)
	}
	t.Logf("%d iteration states allocated over %d trips", ex.IterStatesAllocated(), trips)
	if n := ex.IterStatesAllocated(); n > 16 {
		t.Errorf("%d-trip loop allocated %d iteration states; retired iterations are not being recycled", trips, n)
	}
}

// loopFixture is a hand-built two-variable loop for the failure-path tests:
//
//	for i, acc := 0, x; i < limit; i++ { push(acc); acc += extra(i) }
//
// extra builds the per-iteration addend from i, the in-loop counter, which
// is sequenced after the push: an addend that uses i makes every iteration
// push acc onto a gradient stack that nothing pops, so a step that fails
// mid-loop leaves stacks behind unless the executor drops them.
func loopFixture(t *testing.T, limit int32, extra func(g *graph.Graph, enterConst func(graph.Endpoint) graph.Endpoint, i graph.Endpoint) graph.Endpoint) (*graph.Graph, graph.Endpoint, graph.Endpoint) {
	t.Helper()
	g := graph.New()
	konst := func(name string, v *tensor.Tensor) graph.Endpoint {
		return addNode(t, g, "Const", nil, graph.NodeArgs{Name: name, Attrs: map[string]any{"value": v}}).Out(0)
	}
	enter := func(in graph.Endpoint, constant bool) graph.Endpoint {
		return addNode(t, g, "Enter", []graph.Endpoint{in}, graph.NodeArgs{
			Attrs: map[string]any{"frame_name": "loop", "is_constant": constant},
		}).Out(0)
	}
	enterConst := func(in graph.Endpoint) graph.Endpoint { return enter(in, true) }
	x := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	mergeI := addNode(t, g, "Merge", []graph.Endpoint{enter(konst("zero", tensor.ScalarInt(0)), false)}, graph.NodeArgs{})
	mergeA := addNode(t, g, "Merge", []graph.Endpoint{enter(x.Out(0), false)}, graph.NodeArgs{})
	pred := addNode(t, g, "Less", []graph.Endpoint{mergeI.Out(0), enterConst(konst("limit", tensor.ScalarInt(limit)))}, graph.NodeArgs{})
	cond := addNode(t, g, "LoopCond", []graph.Endpoint{pred.Out(0)}, graph.NodeArgs{})
	swI := addNode(t, g, "Switch", []graph.Endpoint{mergeI.Out(0), cond.Out(0)}, graph.NodeArgs{})
	swA := addNode(t, g, "Switch", []graph.Endpoint{mergeA.Out(0), cond.Out(0)}, graph.NodeArgs{})
	exit := addNode(t, g, "Exit", []graph.Endpoint{swA.Out(0)}, graph.NodeArgs{})
	push := addNode(t, g, "StackPush", []graph.Endpoint{swA.Out(1), swI.Out(1)}, graph.NodeArgs{
		Attrs: map[string]any{"stack": "saved"},
	})
	addend := extra(g, enterConst, addNode(t, g, "Identity", []graph.Endpoint{swI.Out(1)}, graph.NodeArgs{Control: []*graph.Node{push}}).Out(0))
	nextA := addNode(t, g, "NextIteration", []graph.Endpoint{
		addNode(t, g, "Add", []graph.Endpoint{swA.Out(1), addend}, graph.NodeArgs{}).Out(0),
	}, graph.NodeArgs{})
	nextI := addNode(t, g, "NextIteration", []graph.Endpoint{
		addNode(t, g, "Add", []graph.Endpoint{swI.Out(1), enterConst(konst("one", tensor.ScalarInt(1)))}, graph.NodeArgs{}).Out(0),
	}, graph.NodeArgs{})
	if err := g.AddBackEdge(mergeI, nextI.Out(0)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBackEdge(mergeA, nextA.Out(0)); err != nil {
		t.Fatal(err)
	}
	return g, x.Out(0), exit.Out(0)
}

// runConcurrentFailingSteps runs 8 concurrent steps that must all fail, and
// checks that none leaves a gradient stack behind.
func runConcurrentFailingSteps(t *testing.T, ex *exec.Executable, params func(step int) exec.RunParams) {
	t.Helper()
	rm := device.NewResourceManager()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := params(i)
			p.Resources, p.StepID = rm, int64(100+i)
			p.FeedValues = []*tensor.Tensor{tensor.Scalar(float32(i))}
			if out, err := ex.Run(p); err == nil {
				t.Errorf("step %d succeeded with %v; it should have failed mid-loop", i, out[0])
			}
		}(i)
	}
	wg.Wait()
	if names := rm.StackNames(); len(names) != 0 {
		t.Errorf("failed steps leaked stacks: %v", names)
	}
}

// TestKernelErrorInsideIteration: the loop's fourth iteration gathers row 3
// of a 3-row table. The step must fail with the kernel's error — not hang,
// not report a missing fetch — with iterations and their stacks in flight.
func TestKernelErrorInsideIteration(t *testing.T) {
	g, feedEP, fetchEP := loopFixture(t, 8, func(g *graph.Graph, enterConst func(graph.Endpoint) graph.Endpoint, i graph.Endpoint) graph.Endpoint {
		table := addNode(t, g, "Const", nil, graph.NodeArgs{
			Name: "table", Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{3}, []float32{1, 2, 3})},
		})
		return addNode(t, g, "Gather", []graph.Endpoint{enterConst(table.Out(0)), i}, graph.NodeArgs{}).Out(0)
	})
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	runConcurrentFailingSteps(t, ex, func(int) exec.RunParams { return exec.RunParams{} })
}

// TestExternalAbortInsideLoop is TestExternalAbortCancelsBlockedStep inside
// a frame: every iteration blocks dequeuing from an empty queue, and only
// the caller's abort can end the step.
func TestExternalAbortInsideLoop(t *testing.T) {
	g, feedEP, fetchEP := loopFixture(t, 8, func(g *graph.Graph, enterConst func(graph.Endpoint) graph.Endpoint, i graph.Endpoint) graph.Endpoint {
		// A queue reference does not pass through an Enter, so the queue op
		// itself runs in the frame, ordered after the counter by a control
		// edge; every execution resolves to the same named queue.
		types := map[string]any{"component_types": []tensor.DType{tensor.Float32}, "shapes": []tensor.Shape{{}}}
		q := addNode(t, g, "FIFOQueue", nil, graph.NodeArgs{Name: "q", Control: []*graph.Node{i.Node}, Attrs: map[string]any{
			"capacity": 1, "component_types": types["component_types"], "shapes": types["shapes"],
		}})
		return addNode(t, g, "QueueDequeue", []graph.Endpoint{q.Out(0)}, graph.NodeArgs{Attrs: types}).Out(0)
	})
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	runConcurrentFailingSteps(t, ex, func(int) exec.RunParams {
		abort := make(chan struct{})
		// Abort once all 8 steps are as deep into their loops as they can
		// get: the counter has run ahead through iterations 0..8 while
		// iteration 0 is still blocked, so each step holds its root state
		// and nine loop states.
		go func() {
			for ex.IterStatesAllocated() < 8*10 {
				runtime.Gosched()
			}
			close(abort)
		}()
		return exec.RunParams{Abort: abort}
	})
}

// TestLateConstantEnterReachesRunningIterations: the loop counter runs all
// of its iterations ahead of a loop-invariant input that has not arrived —
// it is dequeued from a queue the test fills only once every iteration is in
// flight (which also grows the iteration ring past its initial size). The
// late value must then reach every waiting iteration exactly once.
func TestLateConstantEnterReachesRunningIterations(t *testing.T) {
	const trips = 20
	types := map[string]any{"component_types": []tensor.DType{tensor.Float32}, "shapes": []tensor.Shape{{}}}
	var q *graph.Node
	g, feedEP, fetchEP := loopFixture(t, trips, func(g *graph.Graph, enterConst func(graph.Endpoint) graph.Endpoint, i graph.Endpoint) graph.Endpoint {
		q = addNode(t, g, "FIFOQueue", nil, graph.NodeArgs{Name: "q", Attrs: map[string]any{
			"capacity": 8, "component_types": types["component_types"], "shapes": types["shapes"],
		}})
		late := addNode(t, g, "QueueDequeue", []graph.Endpoint{q.Out(0)}, graph.NodeArgs{Attrs: types})
		return enterConst(late.Out(0))
	})
	three := addNode(t, g, "Const", nil, graph.NodeArgs{Name: "three", Attrs: map[string]any{"value": tensor.Scalar(3)}})
	enq := addNode(t, g, "QueueEnqueue", []graph.Endpoint{q.Out(0), three.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	fill, err := exec.Compile(g, nil, nil, []*graph.Node{enq}, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := float32(i)
			out, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{tensor.Scalar(x)}, Resources: rm, StepID: int64(i + 1)})
			if err != nil {
				t.Errorf("step %d: %v", i, err)
			} else if got, want := out[0].FloatAt(0), float64(x+3*trips); got != want {
				t.Errorf("step %d: exit %v, want %v", i, got, want)
			}
		}(i)
	}
	// With every iteration in flight a step holds its root state and the
	// loop's iterations 0..trips; none can retire before the Enter has run.
	for ex.IterStatesAllocated() < 8*(trips+2) {
		runtime.Gosched()
	}
	for i := 0; i < 8; i++ {
		if _, err := fill.Run(exec.RunParams{Resources: rm, StepID: int64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
