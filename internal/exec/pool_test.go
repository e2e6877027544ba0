package exec_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	graphbuild "repro/internal/build"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	_ "repro/internal/ops"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// buildChain makes a Placeholder feeding depth Identity nodes and a final
// Neg, returning the graph and the endpoints to feed and fetch.
func buildChain(t *testing.T, depth int) (*graph.Graph, graph.Endpoint, graph.Endpoint) {
	t.Helper()
	g := graph.New()
	ph := addNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
	})
	cur := ph.Out(0)
	for i := 0; i < depth; i++ {
		cur = addNode(t, g, "Identity", []graph.Endpoint{cur}, graph.NodeArgs{}).Out(0)
	}
	neg := addNode(t, g, "Neg", []graph.Endpoint{cur}, graph.NodeArgs{})
	return g, ph.Out(0), neg.Out(0)
}

// TestFastPathStepAllocations pins the executor's steady-state allocation
// behavior on a graph without control flow: with pooled step state,
// arena-backed inputs and reusable op contexts, a null step must stay far
// below one allocation per op. This guards against future changes silently
// reintroducing per-node garbage (outputs slices, contexts, input buffers).
func TestFastPathStepAllocations(t *testing.T) {
	const depth = 254 // 256 nodes with the Placeholder pruned to a feed
	g, feedEP, fetchEP := buildChain(t, depth)
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	numOps := float64(ex.NumNodes())
	rm := device.NewResourceManager()
	x := tensor.Scalar(3)
	p := exec.RunParams{FeedValues: []*tensor.Tensor{x}, Resources: rm, StepID: 1}
	// Warm the step pool and the worker pool.
	for i := 0; i < 4; i++ {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	perOp := avg / numOps
	t.Logf("allocs/run = %.1f over %d ops (%.3f allocs/op)", avg, int(numOps), perOp)
	// Budget: 0.25 allocations per op. The steady state is 6 allocations per
	// *step* (result slice, done/abort channels, the fetched tensor), so the
	// per-op figure has a wide margin even under -race.
	if perOp > 0.25 {
		t.Errorf("null step allocates %.3f allocs/op (budget 0.25): per-node garbage crept back in", perOp)
	}
	// The per-step constant itself: 12 leaves room for -race, where
	// sync.Pool drops a share of its Puts and a step is rebuilt now and then.
	if avg > 12 {
		t.Errorf("null step allocates %.1f times (budget 12): the Run goroutine's scratch or the step state is no longer pooled", avg)
	}
}

// TestMomentumStepAllocatedBytes pins what a dense training step may allocate:
// nothing of a parameter's size, so the bound is flat in the model's size.
// The forward and backward passes lease each parameter (Read, no copy), and
// one ApplyMomentum per parameter updates the velocity in place (nothing else
// reads that slot, so after the first step it is the variable's own buffer)
// and writes the new parameter into the variable's spare: the buffer of the
// value before, whose lease the executor returned after its last consumer.
// Activations and gradients come from the step's free list (ApplyMomentum
// keeps nothing of its gradient). A Read that escapes again, a clone that
// creeps back into the velocity's update, a gradient that falls out of the
// free list or an update that is unfused again is a tensor a step and fails
// here rather than in a benchmark.
func TestMomentumStepAllocatedBytes(t *testing.T) {
	const batch, in, hidden, out = 8, 64, 128, 32
	g := graph.New()
	b := graphbuild.New(g)
	placeholder := func(name string, shape tensor.Shape) graph.Endpoint {
		return b.Node("Placeholder", nil, name, map[string]any{"dtype": tensor.Float32, "shape": shape}).Out(0)
	}
	x, want := placeholder("x", tensor.Shape{batch, in}), placeholder("want", tensor.Shape{batch, out})
	w1 := b.Variable("w1", tensor.Float32, tensor.Shape{in, hidden})
	w2 := b.Variable("w2", tensor.Float32, tensor.Shape{hidden, out})
	// ½‖relu(x·w1)·w2 − want‖² and its gradients, written out by hand.
	h := b.Op1("Relu", b.MatMul(x, b.Read(w1.Out(0)), false, false))
	w2Val := b.Read(w2.Out(0))
	dy := b.Sub(b.MatMul(h, w2Val, false, false), want)
	dw2 := b.MatMul(h, dy, true, false)
	dw1 := b.MatMul(x, b.Op2("ReluGrad", b.MatMul(dy, w2Val, false, true), h), true, false)
	rule := optim.Rule{Algo: "momentum", LearningRate: 0.01, Decay: 0.9}
	var updates, inits []*graph.Node
	rng := tensor.NewRNG(3)
	paramBytes := 0
	for _, p := range []struct {
		v    *graph.Node
		grad graph.Endpoint
	}{{w1, dw1}, {w2, dw2}} {
		shape := p.v.OutSpec(0).Shape
		paramBytes += shape.NumElements() * 4
		inits = append(inits, b.Node("Assign", []graph.Endpoint{p.v.Out(0), b.Const(rng.Normal(tensor.Float32, shape, 0, 0.1))}, "", nil))
		update, slots := optim.Apply(b, rule, optim.Var{Name: p.v.Name(), Ref: p.v.Out(0), B: b}, optim.Grad{Dense: p.grad})
		updates = append(updates, update)
		for _, s := range slots {
			inits = append(inits, s.Init)
		}
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	initEx, err := exec.Compile(g, nil, nil, inits, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := initEx.Run(exec.RunParams{Resources: rm, StepID: 1}); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.Compile(g, []graph.Endpoint{x, want}, nil, updates, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	p := exec.RunParams{
		FeedValues: []*tensor.Tensor{rng.Normal(tensor.Float32, tensor.Shape{batch, in}, 0, 1), rng.Normal(tensor.Float32, tensor.Shape{batch, out}, 0, 1)},
		Resources:  rm,
	}
	// The least any one step allocated is the steady state: a step that had
	// to rebuild its pooled state (-race drops some sync.Pool Puts) or ran
	// beside a collection allocates more, never less.
	least := uint64(1 << 62)
	var before, after runtime.MemStats
	for i := 0; i < 24; i++ {
		p.StepID = int64(i + 2)
		runtime.ReadMemStats(&before)
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 4 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	const budget = 16 << 10 // step bookkeeping, shapes, the unplanned small outputs
	t.Logf("steady-state step allocates %d bytes for %d parameter bytes (%.2f×)", least, paramBytes, float64(least)/float64(paramBytes))
	if least > budget {
		t.Errorf("a Momentum step allocates %d bytes, budget %d (the model is %d bytes): a per-step copy of a parameter is back", least, budget, paramBytes)
	}
}

// TestPooledStepRetainsNoTensors checks that a step state waiting in the pool
// references neither what was fed nor what was fetched: the root iteration's
// inputs, the fetch slots and the Run goroutine's scratch (op context, output
// buffer, ready list), which rides in the step, are all cleared on release.
// The step is held alive here while the collector runs, so the finalizers can
// only fire if it really let go.
func TestPooledStepRetainsNoTensors(t *testing.T) {
	g := graph.New()
	shape := tensor.Shape{1 << 16}
	ph := addNode(t, g, "Placeholder", nil, graph.NodeArgs{Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": shape}})
	neg := addNode(t, g, "Neg", []graph.Endpoint{ph.Out(0)}, graph.NodeArgs{})
	ex, err := exec.Compile(g, []graph.Endpoint{ph.Out(0)}, []graph.Endpoint{neg.Out(0)}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	for attempt := 0; attempt < 20; attempt++ {
		freed := make(chan string, 2)
		x := tensor.New(tensor.Float32, shape)
		runtime.SetFinalizer(x, func(*tensor.Tensor) { freed <- "feed" })
		out, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{x}, Resources: rm, StepID: int64(attempt + 1)})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(out[0], func(*tensor.Tensor) { freed <- "fetch" })
		x, out = nil, nil
		held := ex.TakePooledStep()
		if held == nil {
			continue // under -race sync.Pool drops some Puts; go again
		}
		for n := 0; n < 2; n++ {
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(5 * time.Second):
				t.Fatalf("the pooled step still references a fed or fetched tensor (%d of 2 collected)", n)
			}
		}
		runtime.KeepAlive(held)
		return
	}
	t.Fatal("no step ever came back to the pool")
}

// execGoroutines counts the goroutines running this package's code: pool
// workers, private goroutines of blocking kernels, abort forwarders.
func execGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "\nrepro/internal/exec.(")
}

// TestWorkerPoolRetiresItself: an Executable has no Close — its workers are
// meant to leave by themselves once idle, and everything a step starts is
// joined before Run returns. After a burst of concurrent steps that fills the
// pool, after a failed step and after a step aborted from outside, the
// process must be back at the goroutine count it started from.
func TestWorkerPoolRetiresItself(t *testing.T) {
	settle := func(what string, base int, ex *exec.Executable) {
		t.Helper()
		deadline := time.Now().Add(20 * exec.WorkerIdleTimeout)
		for {
			live, _ := ex.PoolWorkers()
			if live == 0 && execGoroutines() == 0 && runtime.NumGoroutine() <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d pool workers, %d goroutines against %d at the start:\n%s", what, live, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(exec.WorkerIdleTimeout / 4)
		}
	}

	// x fans out into 16 chains that meet in one AddN; a Gather that fails and
	// a dequeue that blocks hang off the same graph for the other two cases.
	g := graph.New()
	x := addNode(t, g, "Placeholder", nil, graph.NodeArgs{Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()}})
	var ends []graph.Endpoint
	for c := 0; c < 16; c++ {
		cur := x.Out(0)
		for d := 0; d < 8; d++ {
			cur = addNode(t, g, "Neg", []graph.Endpoint{cur}, graph.NodeArgs{}).Out(0)
		}
		ends = append(ends, cur)
	}
	sum := addNode(t, g, "AddN", ends, graph.NodeArgs{}).Out(0)
	table := addNode(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{2, 1}, []float32{1, 2})}})
	row := addNode(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": tensor.FromInt32s(tensor.Shape{1}, []int32{7})}})
	gather := addNode(t, g, "Gather", []graph.Endpoint{table.Out(0), row.Out(0)}, graph.NodeArgs{}).Out(0)
	q := addNode(t, g, "FIFOQueue", nil, graph.NodeArgs{Attrs: map[string]any{
		"capacity": 1, "component_types": []tensor.DType{tensor.Float32}, "shapes": []tensor.Shape{{}},
	}})
	deq := addNode(t, g, "QueueDequeue", []graph.Endpoint{q.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"component_types": []tensor.DType{tensor.Float32}, "shapes": []tensor.Shape{{}}},
	}).Out(0)
	compile := func(fetches ...graph.Endpoint) *exec.Executable {
		ex, err := exec.Compile(g, []graph.Endpoint{x.Out(0)}, fetches, nil, "CPU")
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	rm := device.NewResourceManager()
	var stepID atomic.Int64
	params := func() exec.RunParams {
		return exec.RunParams{FeedValues: []*tensor.Tensor{tensor.Scalar(3)}, Resources: rm, StepID: stepID.Add(1)}
	}

	wide := compile(sum)
	settle("before the first step", 1<<30, wide) // earlier tests' workers retire first
	base := runtime.NumGoroutine()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if out, err := wide.Run(params()); err != nil || out[0].FloatAt(0) != 48 {
					t.Errorf("wide step = %v, %v", out, err)
					return
				}
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if live, limit := wide.PoolWorkers(); live == limit {
			break
		}
		if time.Now().After(deadline) {
			t.Error("the pool never reached its cap")
			break
		}
	}
	close(stop)
	wg.Wait()
	settle("after concurrent steps", base, wide)

	failing := compile(sum, gather)
	if _, err := failing.Run(params()); err == nil {
		t.Error("out-of-range Gather did not fail the step")
	}
	settle("after a failed step", base, failing)

	blocked := compile(sum, deq)
	abort := make(chan struct{})
	p := params()
	p.Abort = abort
	time.AfterFunc(10*time.Millisecond, func() { close(abort) })
	if _, err := blocked.Run(p); err == nil {
		t.Error("blocked dequeue survived an external abort")
	}
	settle("after an aborted step", base, blocked)
}

// TestPooledStepsIsolateConcurrentRuns hammers one pooled Executable with
// concurrent steps over distinct StepIDs and distinct feeds, interleaved
// with externally aborted steps, and checks every successful result against
// its own feed: pooled arenas and counters must never leak values across
// steps.
func TestPooledStepsIsolateConcurrentRuns(t *testing.T) {
	g, feedEP, fetchEP := buildChain(t, 40)
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	const goroutines = 24
	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				want := float32(gi*1000 + r)
				p := exec.RunParams{
					FeedValues: []*tensor.Tensor{tensor.Scalar(want)},
					Resources:  rm,
					StepID:     int64(gi*rounds + r + 1),
				}
				// Every third round runs with an already-fired external
				// abort: the step must fail without poisoning the pooled
				// state it returns.
				if r%3 == 2 {
					abort := make(chan struct{})
					close(abort)
					p.Abort = abort
					// A pre-closed abort may still lose the race with a
					// fast step, so both failure and a correct result are
					// acceptable; only a wrong value is a leak.
					if out, err := ex.Run(p); err == nil {
						if got := out[0].FloatAt(0); got != -float64(want) {
							select {
							case errs <- fmt.Errorf("aborted step %d: fetched %v, want %v (cross-step leak)", p.StepID, got, -want):
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
				if got := out[0].FloatAt(0); got != -float64(want) {
					select {
					case errs <- fmt.Errorf("step %d: fetched %v, want %v (cross-step leak)", p.StepID, got, -want):
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

// TestPooledStepSequentialReuse checks that back-to-back steps on one
// executable (the training-loop shape that exercises step-state reuse the
// hardest) stay correct when feeds change every iteration.
func TestPooledStepSequentialReuse(t *testing.T) {
	g, feedEP, fetchEP := buildChain(t, 8)
	ex, err := exec.Compile(g, []graph.Endpoint{feedEP}, []graph.Endpoint{fetchEP}, nil, "CPU")
	if err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	for i := 0; i < 200; i++ {
		want := float32(i)
		out, err := ex.Run(exec.RunParams{
			FeedValues: []*tensor.Tensor{tensor.Scalar(want)},
			Resources:  rm,
			StepID:     int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].FloatAt(0); got != -float64(want) {
			t.Fatalf("iteration %d: fetched %v, want %v", i, got, -want)
		}
	}
}
