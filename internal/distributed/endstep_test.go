package distributed

import (
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// eachTransport runs body on a one-PS, two-worker cluster in process and on
// one over TCP loopback. aborts counts the AbortStep calls made through
// resolver, which body hands the master.
func eachTransport(t *testing.T, body func(t *testing.T, spec ClusterSpec, workers map[string]*Worker, resolver Resolver, aborts func() int)) {
	counted := func(inner Resolver) (Resolver, func() int) {
		var mu sync.Mutex
		n := new(int)
		return func(task string) (Transport, error) {
				tr, err := inner(task)
				if err != nil {
					return nil, err
				}
				return countingTransport{Transport: tr, aborts: n, mu: &mu}, nil
			}, func() int {
				mu.Lock()
				defer mu.Unlock()
				return *n
			}
	}
	t.Run("inproc", func(t *testing.T) {
		spec, cluster := testCluster()
		resolver, aborts := counted(cluster.Resolver())
		body(t, spec, cluster.Workers, resolver, aborts)
	})
	t.Run("tcp", func(t *testing.T) {
		spec, servers, inner := tcpCluster(t, map[string]int{"ps": 1, "worker": 2})
		workers := map[string]*Worker{}
		for task, srv := range servers {
			workers[task] = srv.worker
		}
		resolver, aborts := counted(inner)
		body(t, spec, workers, resolver, aborts)
	})
}

// noLeftovers fails t if a task still buffers a rendezvous entry.
func noLeftovers(t *testing.T, workers map[string]*Worker) {
	t.Helper()
	for task, w := range workers {
		if n := w.LocalTensorCount(); n != 0 {
			t.Errorf("%s holds %d rendezvous entries after successful steps", task, n)
		}
	}
}

// TestSuccessfulStepSendsNoAbortStep: a step whose partitions all succeed
// ends without a cleanup round — every value a Send left was consumed by its
// Recv — so the master sends no AbortStep and no task keeps an entry.
func TestSuccessfulStepSendsNoAbortStep(t *testing.T) {
	eachTransport(t, func(t *testing.T, spec ClusterSpec, workers map[string]*Worker, resolver Resolver, aborts func() int) {
		g, _, assign, _, double := psWorkerGraph(t)
		m, err := NewMaster(g, spec, resolver, MasterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			out, err := m.Run(nil, []graph.Endpoint{double.Out(0)}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := out[0].Float32s(); got[0] != 1 || got[1] != 4 {
				t.Fatalf("step %d = %v, want [1 4]", i, got)
			}
		}
		if n := aborts(); n != 0 {
			t.Errorf("six successful steps sent %d AbortStep calls, want 0", n)
		}
		noLeftovers(t, workers)
	})
}

// TestDeadValueCrossesTasks: the untaken branch of a Switch on one task
// feeds a node on another, by a data edge and by a control edge (carried by
// partition's dummy Send). A dead Send sends a dead value, so the remote
// branch turns dead — the data branch's Merge back on the first task takes
// the live input, the control-gated update does not run — instead of the
// remote Recv waiting forever.
func TestDeadValueCrossesTasks(t *testing.T) {
	const w0, w1 = "/job:worker/task:0", "/job:worker/task:1"
	eachTransport(t, func(t *testing.T, spec ClusterSpec, workers map[string]*Worker, resolver Resolver, aborts func() int) {
		g := graph.New()
		pred := buildNode(t, g, "Placeholder", nil, graph.NodeArgs{
			Name: "pred", Attrs: map[string]any{"dtype": tensor.Bool, "shape": tensor.ScalarShape()}, Device: w0,
		})
		x := buildNode(t, g, "Const", nil, graph.NodeArgs{Name: "x", Attrs: map[string]any{"value": tensor.Scalar(3)}, Device: w0})
		sw := buildNode(t, g, "Switch", []graph.Endpoint{x.Out(0), pred.Out(0)}, graph.NodeArgs{Name: "sw", Device: w0})
		// Data edge: the false branch is negated on task 1.
		far := buildNode(t, g, "Neg", []graph.Endpoint{sw.Out(0)}, graph.NodeArgs{Name: "far", Device: w1})
		near := buildNode(t, g, "Identity", []graph.Endpoint{sw.Out(1)}, graph.NodeArgs{Name: "near", Device: w0})
		merged := buildNode(t, g, "Merge", []graph.Endpoint{far.Out(0), near.Out(0)}, graph.NodeArgs{Name: "merged", Device: w0})
		// Control edge: an update on task 1 that waits for the false branch.
		counter := buildNode(t, g, "Variable", nil, graph.NodeArgs{
			Name: "counter", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()}, Device: w1,
		})
		zero := buildNode(t, g, "Const", nil, graph.NodeArgs{Name: "zero", Attrs: map[string]any{"value": tensor.Scalar(0)}, Device: w1})
		init := buildNode(t, g, "Assign", []graph.Endpoint{counter.Out(0), zero.Out(0)}, graph.NodeArgs{Name: "init"})
		gate := buildNode(t, g, "Identity", []graph.Endpoint{sw.Out(0)}, graph.NodeArgs{Name: "gate", Device: w0})
		five := buildNode(t, g, "Const", nil, graph.NodeArgs{
			Name: "five", Attrs: map[string]any{"value": tensor.Scalar(5)}, Device: w1, Control: []*graph.Node{gate},
		})
		bump := buildNode(t, g, "AssignAdd", []graph.Endpoint{counter.Out(0), five.Out(0)}, graph.NodeArgs{Name: "bump"})
		read := buildNode(t, g, "Read", []graph.Endpoint{counter.Out(0)}, graph.NodeArgs{Name: "read"})

		m, err := NewMaster(g, spec, resolver, MasterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(nil, nil, []*graph.Node{init}, nil); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			pred    bool
			merged  float64
			input   int32
			counter float64
		}{
			{pred: true, merged: 3, input: 1, counter: 0},   // task 1's branches are dead
			{pred: false, merged: -3, input: 0, counter: 5}, // task 1's branches are taken
		} {
			type result struct {
				out []*tensor.Tensor
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := m.Run(map[graph.Endpoint]*tensor.Tensor{pred.Out(0): tensor.ScalarBool(tc.pred)},
					[]graph.Endpoint{merged.Out(0), merged.Out(1)}, []*graph.Node{bump}, nil)
				done <- result{out, err}
			}()
			var r result
			select {
			case r = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("pred=%v: step still blocked after 10s", tc.pred)
			}
			if r.err != nil {
				t.Fatalf("pred=%v: %v", tc.pred, r.err)
			}
			if v, in := r.out[0].FloatAt(0), r.out[1].Int32s()[0]; v != tc.merged || in != tc.input {
				t.Errorf("pred=%v: merge gave %v from input %d, want %v from input %d", tc.pred, v, in, tc.merged, tc.input)
			}
			out, err := m.Run(nil, []graph.Endpoint{read.Out(0)}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := out[0].FloatAt(0); got != tc.counter {
				t.Errorf("pred=%v: counter = %v after the control-gated update, want %v", tc.pred, got, tc.counter)
			}
		}
		if n := aborts(); n != 0 {
			t.Errorf("successful steps sent %d AbortStep calls, want 0", n)
		}
		noLeftovers(t, workers)
	})
}
