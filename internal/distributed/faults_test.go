package distributed

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// sendOnlyGraph registers a Const→Send subgraph on w, returning the handle.
// Running it buffers one rendezvous entry, which is how the missed-abort
// race leaks.
func sendOnlyGraph(t *testing.T, w *Worker) string {
	t.Helper()
	g := graph.New()
	c := buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "c", Attrs: map[string]any{"value": tensor.Scalar(7)},
	})
	buildNode(t, g, "Send", []graph.Endpoint{c.Out(0)}, graph.NodeArgs{
		Name: "send",
		Attrs: map[string]any{
			"tensor_name": "t0",
			"send_device": w.Device().Name(),
			"recv_device": "/job:other/task:0/device:CPU:0",
		},
	})
	bytes, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := w.RegisterGraph(&RegisterGraphReq{GraphBytes: bytes, Targets: []string{"send"}})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Handle
}

func TestAbortBeforeRunGraphAbortsImmediately(t *testing.T) {
	spec := ClusterSpec{"w": {"inproc"}}
	cluster := NewInProcCluster(spec)
	w := cluster.Workers["/job:w/task:0"]
	handle := sendOnlyGraph(t, w)

	// Sanity: a normal run buffers the sent value until the step ends.
	if _, err := w.RunGraph(&RunGraphReq{Handle: handle, StepID: 1}); err != nil {
		t.Fatal(err)
	}
	if n := w.LocalTensorCount(); n != 1 {
		t.Fatalf("after run, buffered = %d, want 1", n)
	}
	if err := w.AbortStep(&AbortStepReq{StepID: 1}); err != nil {
		t.Fatal(err)
	}
	if n := w.LocalTensorCount(); n != 0 {
		t.Fatalf("after end-of-step, buffered = %d, want 0", n)
	}

	// The race: AbortStep arrives before RunGraph registers the step (the
	// master aborted after a fast-failing peer). The late RunGraph must
	// abort instead of running to completion and leaking the send buffer.
	if err := w.AbortStep(&AbortStepReq{StepID: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := w.RunGraph(&RunGraphReq{Handle: handle, StepID: 2})
	if err == nil {
		t.Fatal("RunGraph after AbortStep for the same step should fail")
	}
	if !strings.Contains(err.Error(), "aborted before it started") {
		t.Errorf("error should name the race, got: %v", err)
	}
	if n := w.LocalTensorCount(); n != 0 {
		t.Errorf("missed-abort race leaked %d rendezvous entries", n)
	}
}

// TestParseRefRejectsTrailingGarbage registers, over a real connection, a
// one-output Const under feed and fetch refs that do not name an output it
// has. Each must come back as an error reply with the connection still
// serving: a ref that slipped through used to index past the node's outputs
// inside the executor, on a handler goroutine nothing recovers.
func TestParseRefRejectsTrailingGarbage(t *testing.T) {
	g := graph.New()
	buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "w", Attrs: map[string]any{"value": tensor.Scalar(1)},
	})
	def, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(NewWorker("ps", 0, nil), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ref := range []string{"w:7", "w:0junk", "w:-1", "w:", "w:1x", "w:+0", "noctx"} {
		for _, req := range []*RegisterGraphReq{
			{GraphBytes: def, Fetches: []string{ref}},
			{GraphBytes: def, Feeds: []string{ref}, Fetches: []string{"w:0"}},
		} {
			if resp, err := c.RegisterGraph(req); err == nil {
				t.Errorf("RegisterGraph(feeds %q, fetches %q) accepted a malformed ref as %q", req.Feeds, req.Fetches, resp.Handle)
			}
			if err := c.AbortStep(&AbortStepReq{StepID: -1}); err != nil {
				t.Fatalf("after ref %q the connection stopped serving: %v", ref, err)
			}
		}
	}
	reg, err := c.RegisterGraph(&RegisterGraphReq{GraphBytes: def, Fetches: []string{"w:0"}})
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.RunGraph(&RunGraphReq{Handle: reg.Handle, StepID: 1})
	if err != nil || len(run.Fetches) != 1 || run.Fetches[0].FloatAt(0) != 1 {
		t.Errorf("RunGraph of w:0 = %+v, %v", run, err)
	}
}

func TestParseTaskStrict(t *testing.T) {
	for _, task := range []string{
		"/job:w/task:1junk", "w", "/task:1", "/job:w/task:0/device:CPU:0", "",
		"/job:w/task:-3", "/job:w/replica:-1",
	} {
		if _, _, err := ParseTask(task); err == nil {
			t.Errorf("ParseTask(%q) accepted a malformed task", task)
		}
	}
	job, idx, err := ParseTask("/job:ps/task:3")
	if err != nil || job != "ps" || idx != 3 {
		t.Errorf("ParseTask = %q, %d, %v", job, idx, err)
	}
	// A bare job means task 0 (the resolver's historical default).
	job, idx, err = ParseTask("/job:ps")
	if err != nil || job != "ps" || idx != 0 {
		t.Errorf("ParseTask(bare job) = %q, %d, %v", job, idx, err)
	}
}

// TestServerCloseUnblocksRunningStep exercises the Close path: a RunGraph
// dispatch blocked in a rendezvous Recv must be aborted and joined before
// Close returns, instead of Close racing a still-running handler.
func TestServerCloseUnblocksRunningStep(t *testing.T) {
	w := NewWorker("w", 0, func(string) (Transport, error) {
		return nil, errUnknownTask("none")
	})
	srv, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	buildNode(t, g, "Recv", nil, graph.NodeArgs{
		Name: "r",
		Attrs: map[string]any{
			"tensor_name": "never-sent",
			"dtype":       tensor.Float32,
			"send_device": w.Device().Name(),
			"recv_device": w.Device().Name(),
		},
	})
	bytes, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := client.RegisterGraph(&RegisterGraphReq{GraphBytes: bytes, Fetches: []string{"r:0"}})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		_, err := client.RunGraph(&RunGraphReq{Handle: reg.Handle, StepID: 99})
		runErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the step block in Recv

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on a blocked step")
	}
	if err := <-runErr; err == nil {
		t.Error("blocked RunGraph should fail when the server closes")
	}
}

// countingTransport counts AbortStep calls per task.
type countingTransport struct {
	Transport
	aborts *int
	mu     *sync.Mutex
}

func (c countingTransport) AbortStep(req *AbortStepReq) error {
	c.mu.Lock()
	*c.aborts++
	c.mu.Unlock()
	return c.Transport.AbortStep(req)
}

func TestMasterAbortsOncePerTaskOnFailure(t *testing.T) {
	spec, cluster := testCluster()
	var mu sync.Mutex
	counts := map[string]*int{}
	resolver := func(task string) (Transport, error) {
		tr, err := cluster.Resolver()(task)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		if counts[task] == nil {
			counts[task] = new(int)
		}
		n := counts[task]
		mu.Unlock()
		return countingTransport{Transport: tr, aborts: n, mu: &mu}, nil
	}

	// Worker 1's partition fails (uninitialized read); worker 0 feeds it.
	g := graph.New()
	v := buildNode(t, g, "Variable", nil, graph.NodeArgs{
		Name:   "never_init",
		Attrs:  map[string]any{"dtype": tensor.Float32, "shape": tensor.ScalarShape()},
		Device: "/job:worker/task:1",
	})
	read := buildNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "bad_read"})
	c := buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "c", Attrs: map[string]any{"value": tensor.Scalar(1)}, Device: "/job:worker/task:0",
	})
	sum := buildNode(t, g, "Add", []graph.Endpoint{c.Out(0), read.Out(0)}, graph.NodeArgs{
		Name: "sum", Device: "/job:worker/task:1",
	})
	m, err := NewMaster(g, spec, resolver, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, []graph.Endpoint{sum.Out(0)}, nil, nil); err == nil {
		t.Fatal("failing step should error")
	}
	for task, n := range counts {
		if *n != 1 {
			t.Errorf("%s received %d AbortStep calls, want exactly 1", task, *n)
		}
	}
	for task, w := range cluster.Workers {
		if n := w.LocalTensorCount(); n != 0 {
			t.Errorf("%s leaked %d rendezvous entries", task, n)
		}
	}
}

// tcpCluster serves one worker per task over TCP loopback, filling spec
// addresses as listeners come up. The returned resolver redials restarted
// tasks.
func tcpCluster(t *testing.T, jobs map[string]int) (ClusterSpec, map[string]*Server, Resolver) {
	t.Helper()
	spec := ClusterSpec{}
	for job, n := range jobs {
		spec[job] = make([]string, n)
	}
	var resolver Resolver
	indirect := func(task string) (Transport, error) { return resolver(task) }
	servers := map[string]*Server{}
	for job, n := range jobs {
		for i := 0; i < n; i++ {
			w := NewWorker(job, i, indirect)
			srv, err := Serve(w, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			servers[TaskName(job, i)] = srv
			spec[job][i] = srv.Addr()
		}
	}
	resolver = TCPResolver(spec)
	return spec, servers, resolver
}

func TestMasterRetriesAfterWorkerRestart(t *testing.T) {
	spec, servers, resolver := tcpCluster(t, map[string]int{"ps": 1, "worker": 1})
	g, _, assign, _, double := psWorkerGraph(t)
	m, err := NewMaster(g, spec, resolver, MasterOptions{StepRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, nil, []*graph.Node{assign}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, []graph.Endpoint{double.Out(0)}, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Kill the (stateless) worker task and restart it on the same address:
	// its registered handles are gone and the master's cached connection is
	// dead, so the next step must re-resolve, re-register and rerun.
	wt := TaskName("worker", 0)
	addr := servers[wt].Addr()
	if err := servers[wt].Close(); err != nil {
		t.Fatal(err)
	}
	w2 := NewWorker("worker", 0, func(task string) (Transport, error) { return resolver(task) })
	srv2, err := Serve(w2, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	out, err := m.Run(nil, []graph.Endpoint{double.Out(0)}, nil, nil)
	if err != nil {
		t.Fatalf("step after worker restart should be retried to success, got: %v", err)
	}
	if got := out[0].Float32s(); got[0] != 1 || got[1] != 4 {
		t.Errorf("retried step = %v, want [1 4]", got)
	}
}

// squareGraph is a variable name = [1, 2] on the PS task, its initializer,
// and its square on a worker: two partitions, the PS one sending name_read.
func squareGraph(t *testing.T, name, worker string) (g *graph.Graph, init *graph.Node, square graph.Endpoint) {
	g = graph.New()
	v := buildNode(t, g, "Variable", nil, graph.NodeArgs{Name: name, Device: "/job:ps/task:0",
		Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{2}}})
	val := buildNode(t, g, "Const", nil, graph.NodeArgs{Name: name + "_init", Device: "/job:ps/task:0",
		Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 2})}})
	init = buildNode(t, g, "Assign", []graph.Endpoint{v.Out(0), val.Out(0)}, graph.NodeArgs{Name: name + "_assign"})
	read := buildNode(t, g, "Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: name + "_read"})
	sq := buildNode(t, g, "Mul", []graph.Endpoint{read.Out(0), read.Out(0)}, graph.NodeArgs{Name: name + "_square", Device: worker})
	return g, init, sq.Out(0)
}

// TestStaleHandleAfterRestart: a master that still holds a handle from before
// a task restarted must find it unknown, whatever other masters registered on
// the new task since. Masters B and A each register an init and a square
// step; the PS task restarts; A recovers first and re-registers both on the
// new task. B's cached square step then must fail as unknown, re-register,
// and report its own v uninitialised. When handles were numbered per Worker
// from 1, B's stale PS handle named A's new square partition, which sent
// w_read under B's step while B's worker waited for v_read: the step hung.
//
// The incarnation in a handle is random, not a counter: a process-wide
// counter would pass this test, where the new Worker shares the process, but
// it starts again at 1 in a new tfserver process.
func TestStaleHandleAfterRestart(t *testing.T) {
	for _, overTCP := range []bool{false, true} {
		name := map[bool]string{false: "in-process", true: "TCP"}[overTCP]
		t.Run(name, func(t *testing.T) {
			var spec ClusterSpec
			var resolver Resolver
			var restartPS func()
			if overTCP {
				var servers map[string]*Server
				spec, servers, resolver = tcpCluster(t, map[string]int{"ps": 1, "worker": 2})
				restartPS = func() {
					if err := servers["/job:ps/task:0"].Close(); err != nil {
						t.Fatal(err)
					}
					ps, err := NewPS(spec, "ps", 0, resolver, PSOptions{})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { ps.Close() })
				}
			} else {
				var cluster *InProcCluster
				spec, cluster = testCluster()
				resolver = cluster.Resolver()
				restartPS = func() { cluster.Workers["/job:ps/task:0"] = NewWorker("ps", 0, resolver) }
			}
			master := func(g *graph.Graph) *Master {
				m, err := NewMaster(g, spec, resolver, MasterOptions{StepRetries: 3})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			gB, initB, squareB := squareGraph(t, "v", "/job:worker/task:0")
			gA, initA, squareA := squareGraph(t, "w", "/job:worker/task:1")
			b, a := master(gB), master(gA)
			for _, m := range []struct {
				m      *Master
				init   *graph.Node
				square graph.Endpoint
			}{{b, initB, squareB}, {a, initA, squareA}} {
				if _, err := m.m.Run(nil, nil, []*graph.Node{m.init}, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := m.m.Run(nil, []graph.Endpoint{m.square}, nil, nil); err != nil {
					t.Fatal(err)
				}
			}

			restartPS()
			if _, err := a.Run(nil, nil, []*graph.Node{initA}, nil); err != nil {
				t.Fatalf("A's init after the restart: %v", err)
			}
			if out, err := a.Run(nil, []graph.Endpoint{squareA}, nil, nil); err != nil || out[0].Float32s()[1] != 4 {
				t.Fatalf("A's square after the restart = %v, %v", out, err)
			}

			abort := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				_, err := b.Run(nil, []graph.Endpoint{squareB}, nil, abort)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "v_read") || !strings.Contains(err.Error(), "uninitialized") {
					t.Errorf("B's square on the restarted PS returned %v; want B's v reported uninitialised", err)
				}
			case <-time.After(10 * time.Second):
				close(abort)
				<-done
				t.Fatal("B's square step with a handle from before the restart hung")
			}
		})
	}
}

// TestSaveAndRestoreShard: a restarted task restores the newest checkpoint
// under its own ShardPrefix before serving, and only its own.
func TestSaveAndRestoreShard(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "ckpt")
	shard, err := ShardPrefix(prefix, "/job:ps/task:0")
	if err != nil {
		t.Fatal(err)
	}
	if want := prefix + ".ps-0"; shard != want {
		t.Errorf("shard prefix = %q, want %q", shard, want)
	}
	if err := checkpoint.Write(shard+"-7", map[string]*tensor.Tensor{
		"w": tensor.FromFloat32s(tensor.Shape{2}, []float32{3, 4}),
	}); err != nil {
		t.Fatal(err)
	}

	// A restarted task restores its shard before serving.
	w := NewWorker("ps", 0, func(string) (Transport, error) { return nil, errUnknownTask("none") })
	step, ok, err := w.RestoreShard(prefix)
	if err != nil || !ok || step != 7 {
		t.Fatalf("RestoreShard = %d, %v, %v", step, ok, err)
	}
	got := w.Device().Resources().SnapshotVariables()["w"]
	if got == nil {
		t.Fatal("restored shard missing variable w")
	}
	if f := got.Float32s(); f[0] != 3 || f[1] != 4 {
		t.Errorf("restored w = %v, want [3 4]", f)
	}

	// A shard of another task restores nothing.
	other := NewWorker("ps", 1, func(string) (Transport, error) { return nil, errUnknownTask("none") })
	if _, ok, err := other.RestoreShard(prefix); err != nil || ok {
		t.Errorf("foreign shard restore = %v, %v; want no checkpoint", ok, err)
	}
}
