package distributed

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func buildNode(t *testing.T, g *graph.Graph, op string, inputs []graph.Endpoint, args graph.NodeArgs) *graph.Node {
	t.Helper()
	n, err := g.AddNode(op, inputs, args)
	if err != nil {
		t.Fatalf("AddNode(%s): %v", op, err)
	}
	return n
}

func testCluster() (ClusterSpec, *InProcCluster) {
	spec := ClusterSpec{"ps": {"inproc-ps0"}, "worker": {"inproc-w0", "inproc-w1"}}
	return spec, NewInProcCluster(spec)
}

// psWorkerGraph builds: variable on /job:ps, computation on /job:worker —
// the canonical parameter-server placement of §3.3.
func psWorkerGraph(t *testing.T) (*graph.Graph, *graph.Node, *graph.Node, *graph.Node, *graph.Node) {
	g := graph.New()
	v := buildNode(t, g, "Variable", nil, graph.NodeArgs{
		Name:   "w",
		Attrs:  map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{2}},
		Device: "/job:ps/task:0",
	})
	init := buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name:  "w_init",
		Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 2})},
	})
	assign := buildNode(t, g, "Assign", []graph.Endpoint{v.Out(0), init.Out(0)}, graph.NodeArgs{Name: "w_assign"})
	read := buildNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "w_read"})
	double := buildNode(t, g, "Mul", []graph.Endpoint{read.Out(0), read.Out(0)}, graph.NodeArgs{
		Name:   "square_on_worker",
		Device: "/job:worker/task:0",
	})
	return g, v, assign, read, double
}

func TestMasterPlacesPartitionsAndRuns(t *testing.T) {
	spec, cluster := testCluster()
	g, _, assign, read, double := psWorkerGraph(t)
	m, err := NewMaster(g, spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Initialize (runs on ps only).
	if _, err := m.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
		t.Fatal(err)
	}
	// Cross-device step: Read on ps → Send/Recv → Mul on worker.
	out, err := m.Run(nil, []graph.Endpoint{double.Out(0)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Float32s(); got[0] != 1 || got[1] != 4 {
		t.Errorf("distributed square = %v, want [1 4]", got)
	}
	// The variable's state lives on the ps task, not the workers.
	psNames := cluster.Workers["/job:ps/task:0"].Device().Resources().VariableNames()
	if len(psNames) != 1 || psNames[0] != "w" {
		t.Errorf("ps variables = %v", psNames)
	}
	for _, wt := range []string{"/job:worker/task:0", "/job:worker/task:1"} {
		if n := cluster.Workers[wt].Device().Resources().VariableNames(); len(n) != 0 {
			t.Errorf("%s unexpectedly owns variables %v", wt, n)
		}
	}
	_ = read
}

func TestMasterCachesCompiledSteps(t *testing.T) {
	spec, cluster := testCluster()
	g, _, assign, _, double := psWorkerGraph(t)
	m, err := NewMaster(g, spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Run(nil, []graph.Endpoint{double.Out(0)}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.CachedSteps(); got != 2 {
		t.Errorf("cached steps = %d, want 2 (init + train)", got)
	}
}

func TestMasterRoutesFeedsToConsumingPartition(t *testing.T) {
	spec, cluster := testCluster()
	g := graph.New()
	x := buildNode(t, g, "Placeholder", nil, graph.NodeArgs{
		Name:  "x",
		Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{2}},
	})
	neg := buildNode(t, g, "Neg", []graph.Endpoint{x.Out(0)}, graph.NodeArgs{
		Name: "neg", Device: "/job:worker/task:1",
	})
	m, err := NewMaster(g, spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Run(
		map[graph.Endpoint]*tensor.Tensor{x.Out(0): tensor.FromFloat32s(tensor.Shape{2}, []float32{3, -5})},
		[]graph.Endpoint{neg.Out(0)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Float32s(); got[0] != -3 || got[1] != 5 {
		t.Errorf("fed distributed neg = %v", got)
	}
}

func TestDistributedTrainingStep(t *testing.T) {
	// w on ps; two workers compute partial gradients; updates via
	// AssignAdd on ps — asynchronous data-parallel training in miniature
	// (Figure 4a).
	spec, cluster := testCluster()
	g := graph.New()
	v := buildNode(t, g, "Variable", nil, graph.NodeArgs{
		Name:   "w",
		Attrs:  map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
		Device: "/job:ps/task:0",
	})
	zero := buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "zero", Attrs: map[string]any{"value": tensor.Scalar(0)},
	})
	assign := buildNode(t, g, "Assign", []graph.Endpoint{v.Out(0), zero.Out(0)}, graph.NodeArgs{Name: "init"})

	mkWorkerUpdate := func(wi int, delta float32) *graph.Node {
		read := buildNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{
			Name: "read_" + string(rune('a'+wi)),
		})
		d := buildNode(t, g, "Const", nil, graph.NodeArgs{
			Name:   "delta_" + string(rune('a'+wi)),
			Attrs:  map[string]any{"value": tensor.Scalar(delta)},
			Device: TaskName("worker", wi),
		})
		// Compute on the worker: grad = delta + 0*read (forces the
		// parameter fetch across the network like a real step).
		zeroMul := buildNode(t, g, "Mul", []graph.Endpoint{read.Out(0), zero.Out(0)}, graph.NodeArgs{
			Name: "zm_" + string(rune('a'+wi)), Device: TaskName("worker", wi),
		})
		grad := buildNode(t, g, "Add", []graph.Endpoint{d.Out(0), zeroMul.Out(0)}, graph.NodeArgs{
			Name: "grad_" + string(rune('a'+wi)), Device: TaskName("worker", wi),
		})
		up := buildNode(t, g, "AssignAdd", []graph.Endpoint{v.Out(0), grad.Out(0)}, graph.NodeArgs{
			Name: "up_" + string(rune('a'+wi)),
		})
		return up
	}
	up0 := mkWorkerUpdate(0, 1)
	up1 := mkWorkerUpdate(1, 10)
	read := buildNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "final_read"})

	m, err := NewMaster(g, spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
		t.Fatal(err)
	}
	// Concurrent asynchronous steps from both workers.
	var wg sync.WaitGroup
	errCh := make(chan error, 20)
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := m.Run(nil, nil, []*graph.Node{up0}, nil); err != nil {
				errCh <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := m.Run(nil, nil, []*graph.Node{up1}, nil); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	out, err := m.Run(nil, []graph.Endpoint{read.Out(0)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].FloatAt(0) != 110 { // 10×1 + 10×10, no lost updates
		t.Errorf("after async training w = %v, want 110", out[0])
	}
}

func TestWorkerFailureAbortsStep(t *testing.T) {
	spec, cluster := testCluster()
	g := graph.New()
	// Worker 0 computes a value for worker 1, but worker 1's subgraph
	// fails (uninitialized variable read), so the whole step must abort,
	// including worker 0's pending send buffers.
	v := buildNode(t, g, "Variable", nil, graph.NodeArgs{
		Name:   "never_init",
		Attrs:  map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
		Device: "/job:worker/task:1",
	})
	read := buildNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "bad_read"})
	c := buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "c", Attrs: map[string]any{"value": tensor.Scalar(1)}, Device: "/job:worker/task:0",
	})
	cNeg := buildNode(t, g, "Neg", []graph.Endpoint{c.Out(0)}, graph.NodeArgs{
		Name: "c_neg", Device: "/job:worker/task:0",
	})
	sum := buildNode(t, g, "Add", []graph.Endpoint{cNeg.Out(0), read.Out(0)}, graph.NodeArgs{
		Name: "sum", Device: "/job:worker/task:1",
	})
	m, err := NewMaster(g, spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(nil, []graph.Endpoint{sum.Out(0)}, nil, nil)
	if err == nil {
		t.Fatal("step with failing partition should error")
	}
	if !strings.Contains(err.Error(), "uninitialized") {
		t.Errorf("error should identify the cause, got: %v", err)
	}
	// No leaked rendezvous buffers after the abort.
	for task, w := range cluster.Workers {
		if n := w.LocalTensorCount(); n != 0 {
			t.Errorf("%s leaked %d rendezvous entries", task, n)
		}
	}
}

func TestTaskRestartRecoversWithCheckpointSemantics(t *testing.T) {
	// Restart a ps task (§4.3 failure model): a new Worker under the same
	// name. Its state is gone, so a client would re-run its Restore path.
	spec, cluster := testCluster()
	g, _, assign, read, _ := psWorkerGraph(t)
	m, err := NewMaster(g, spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, []graph.Endpoint{read.Out(0)}, nil, nil); err != nil {
		t.Fatal(err)
	}
	cluster.Workers["/job:ps/task:0"] = NewWorker("ps", 0, cluster.Resolver())
	// Reads now fail (uninitialized) until re-registered + re-inited.
	if _, err := m.Run(nil, []graph.Endpoint{read.Out(0)}, nil, nil); err == nil {
		t.Fatal("read after task restart should fail")
	}
	// A fresh master (new client session) re-registers and re-initializes.
	m2, err := NewMaster(g, spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := m2.Run(nil, []graph.Endpoint{read.Out(0)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Float32s()[0] != 1 {
		t.Errorf("recovered read = %v", out[0])
	}
}

// TestTCPTransportEndToEnd runs the same ps/worker graph over real TCP
// loopback connections and in-process, and holds the two to ==: the wire is
// lossless, so there is no tolerance to grant it.
func TestTCPTransportEndToEnd(t *testing.T) {
	spec := ClusterSpec{"ps": {""}, "worker": {"", ""}}
	tcp := TCPResolver(spec) // every task resolves its peers over TCP too
	for job, addrs := range map[string][]int{"ps": {0}, "worker": {0, 1}} {
		for _, idx := range addrs {
			srv, err := Serve(NewWorker(job, idx, tcp), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			spec[job][idx] = srv.Addr()
		}
	}
	// A parameter large enough to leave the sender from its own memory
	// rather than the frame's header slice, with values a lossy hop would
	// change: NaN payloads, −0, denormals.
	init := tensor.NewRNG(7).Normal(tensor.Float32, tensor.Shape{64, 9}, 0, 1)
	copy(init.Float32s(), []float32{math.Float32frombits(0x7fc54321), float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32})
	run := func(resolver Resolver) *tensor.Tensor {
		t.Helper()
		g := graph.New()
		v := buildNode(t, g, "Variable", nil, graph.NodeArgs{
			Name: "w", Attrs: map[string]any{"dtype": tensor.Float32, "shape": init.Shape()}, Device: "/job:ps/task:0",
		})
		c := buildNode(t, g, "Const", nil, graph.NodeArgs{Name: "w_init", Attrs: map[string]any{"value": init}})
		assign := buildNode(t, g, "Assign", []graph.Endpoint{v.Out(0), c.Out(0)}, graph.NodeArgs{Name: "w_assign"})
		read := buildNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "w_read"})
		sq := buildNode(t, g, "Mul", []graph.Endpoint{read.Out(0), read.Out(0)}, graph.NodeArgs{Name: "sq", Device: "/job:worker/task:0"})
		out := buildNode(t, g, "Sub", []graph.Endpoint{sq.Out(0), read.Out(0)}, graph.NodeArgs{Name: "out", Device: "/job:worker/task:1"})
		m, err := NewMaster(g, spec, resolver, MasterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(nil, []graph.Endpoint{out.Out(0), read.Out(0)}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range res[1].Float32s() {
			if math.Float32bits(x) != math.Float32bits(init.Float32s()[i]) {
				t.Fatalf("parameter element %d came back as %x, sent %x", i, math.Float32bits(x), math.Float32bits(init.Float32s()[i]))
			}
		}
		return res[0]
	}
	overTCP, inProc := run(tcp), run(NewInProcCluster(spec).Resolver())
	for i, x := range overTCP.Float32s() {
		if want := inProc.Float32s()[i]; math.Float32bits(x) != math.Float32bits(want) {
			t.Fatalf("element %d: %v (%x) over TCP, %v (%x) in-process", i, x, math.Float32bits(x), want, math.Float32bits(want))
		}
	}
	if got := overTCP.Float32s(); got[3] != init.Float32s()[3]*init.Float32s()[3]-init.Float32s()[3] {
		t.Errorf("w² − w computed %v at element 3 from w = %v", got[3], init.Float32s()[3])
	}
}

func TestGraphDefRoundTrip(t *testing.T) {
	g, _, _, _, _ := psWorkerGraph(t)
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := graph.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() {
		t.Fatalf("round trip lost nodes: %d vs %d", back.NumNodes(), g.NumNodes())
	}
	for _, n := range g.Nodes() {
		bn := back.ByName(n.Name())
		if bn == nil {
			t.Fatalf("node %s missing after round trip", n.Name())
		}
		if bn.Op() != n.Op() || bn.Device() != n.Device() || bn.NumInputs() != n.NumInputs() {
			t.Errorf("node %s changed after round trip", n.Name())
		}
	}
}

func TestClusterSpecHelpers(t *testing.T) {
	spec := ClusterSpec{"ps": {"a:1", "a:2"}, "worker": {"b:1"}}
	if got := len(spec.Tasks()); got != 3 {
		t.Errorf("Tasks() = %d entries", got)
	}
	if got := len(spec.Devices()); got != 3 {
		t.Errorf("Devices() = %d entries", got)
	}
	addr, err := spec.Address("ps", 1)
	if err != nil || addr != "a:2" {
		t.Errorf("Address = %q, %v", addr, err)
	}
	if _, err := spec.Address("ps", 5); err == nil {
		t.Error("out-of-range task accepted")
	}
	task, err := taskOfDevice("/job:ps/task:1/device:CPU:0")
	if err != nil || task != "/job:ps/task:1" {
		t.Errorf("taskOfDevice = %q, %v", task, err)
	}
}
