package distributed

// Unit battery for the fault-injection substrate: dial backoff, the chaos
// plan's determinism, and the worker's duplicate-delivery defenses.

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestDialBackoffGatesRedials: a task behind a refused port must not be
// dialed at the caller's retry rate — the cache's capped exponential
// backoff bounds dial attempts while callers get fast ErrUnavailable.
func TestDialBackoffGatesRedials(t *testing.T) {
	dials := 0
	cache := newClientCache(func(addr string) (Transport, error) {
		dials++
		return nil, fmt.Errorf("connection refused to %s", addr)
	})
	task := TaskName("ps", 0)

	calls := 0
	deadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := cache.get(task, "127.0.0.1:1"); err == nil {
			t.Fatal("get to a refused address succeeded")
		} else if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("dial failure must be ErrUnavailable, got %v", err)
		}
		calls++
	}
	// 250ms of failing dials from a 10ms base doubling to a 2s cap admits
	// at most attempts at t=0,10,30,70,150 (plus jitter slack): the vast
	// majority of calls must have been served from backoff, not the dialer.
	if calls < 50 {
		t.Fatalf("only %d calls in the window; backing-off calls should return fast", calls)
	}
	if dials > 8 {
		t.Errorf("%d dials for %d calls; backoff is not gating redials", dials, calls)
	}

	// A successful dial resets the failure streak.
	cache.mu.Lock()
	fails := cache.tasks[task].fails
	cache.mu.Unlock()
	if fails < 2 {
		t.Errorf("failure streak = %d after repeated refusals", fails)
	}
}

// TestDialBackoffRefusedPort runs the same property against a real refused
// TCP port through TCPResolver (the production dial path).
func TestDialBackoffRefusedPort(t *testing.T) {
	addr := reserveRefusedAddr(t)
	resolver := TCPResolver(ClusterSpec{"w": {addr}})
	task := TaskName("w", 0)
	start := time.Now()
	failures := 0
	for time.Since(start) < 150*time.Millisecond {
		if _, err := resolver(task); err == nil {
			t.Fatal("resolver to a refused port succeeded")
		}
		failures++
	}
	if failures < 10 {
		t.Errorf("resolver returned slowly under a refused port: %d calls in 150ms", failures)
	}
}

// reserveRefusedAddr returns a loopback address that refuses connections.
func reserveRefusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestChaosSameSeedSameSchedule: the fault schedule is a pure function of
// the seed and the RPC sequence, and partitions consume no randomness.
func TestChaosSameSeedSameSchedule(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, Drop: 0.2, Delay: 0.2, Dup: 0.2, Err: 0.1}
	run := func(partition bool) []FaultRecord {
		p, err := NewChaosPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if partition {
			p.PartitionTo("/job:w/task:9")
		}
		for i := 0; i < 200; i++ {
			if partition && i%10 == 0 {
				p.decide("RunGraph", "/job:w/task:9") // blocked: no RNG draw
			}
			p.decide("RunGraph", "/job:w/task:0")
		}
		var out []FaultRecord
		for _, r := range p.Log() {
			if r.Kind != FaultPartition {
				out = append(out, FaultRecord{Method: r.Method, Task: r.Task, Kind: r.Kind, Delay: r.Delay})
			}
		}
		return out
	}

	a, b := run(false), run(false)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault schedules")
	}
	if !reflect.DeepEqual(a, run(true)) {
		t.Fatal("partitioned RPCs shifted the seeded schedule of unblocked traffic")
	}
	if reflect.DeepEqual(a, func() []FaultRecord {
		c2 := cfg
		c2.Seed = 43
		p, _ := NewChaosPlan(c2)
		for i := 0; i < 200; i++ {
			p.decide("RunGraph", "/job:w/task:0")
		}
		return p.Log()
	}()) {
		t.Fatal("different seeds produced identical schedules")
	}

	faults := 0
	for _, r := range a {
		if r.Kind != FaultNone {
			faults++
		}
	}
	if faults < 100 || faults > 180 {
		t.Errorf("injected %d faults out of 200 at p=0.7", faults)
	}

	if _, err := NewChaosPlan(ChaosConfig{Drop: 0.6, Err: 0.6}); err == nil {
		t.Error("probabilities summing past 1 accepted")
	}
}

// TestWorkerRejectsDuplicateRunGraph: a retransmitted RunGraph (chaos dup,
// or a network-level retry) must not execute the step twice — re-running an
// optimizer update subgraph would double-apply gradients.
func TestWorkerRejectsDuplicateRunGraph(t *testing.T) {
	spec := ClusterSpec{"w": {"inproc"}}
	cluster := NewInProcCluster(spec)
	w := cluster.Workers["/job:w/task:0"]

	g := graph.New()
	v := buildNode(t, g, "Variable", nil, graph.NodeArgs{
		Name:  "n",
		Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{1}},
	})
	zero := buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "zero", Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{1}, []float32{0})},
	})
	buildNode(t, g, "Assign", []graph.Endpoint{v.Out(0), zero.Out(0)}, graph.NodeArgs{Name: "init"})
	one := buildNode(t, g, "Const", nil, graph.NodeArgs{
		Name: "one", Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{1}, []float32{1})},
	})
	buildNode(t, g, "AssignAdd", []graph.Endpoint{v.Out(0), one.Out(0)}, graph.NodeArgs{Name: "bump"})
	bytes, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := w.RegisterGraph(&RegisterGraphReq{GraphBytes: bytes, Targets: []string{"init"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunGraph(&RunGraphReq{Handle: resp.Handle, StepID: 1}); err != nil {
		t.Fatal(err)
	}

	bumpResp, err := w.RegisterGraph(&RegisterGraphReq{GraphBytes: bytes, Targets: []string{"bump"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunGraph(&RunGraphReq{Handle: bumpResp.Handle, StepID: 2}); err != nil {
		t.Fatal(err)
	}
	// The duplicate delivery: same step ID again.
	if _, err := w.RunGraph(&RunGraphReq{Handle: bumpResp.Handle, StepID: 2}); err == nil {
		t.Fatal("duplicate RunGraph delivery executed")
	} else if !strings.Contains(err.Error(), "duplicate delivery") {
		t.Fatalf("duplicate rejection should name the cause, got: %v", err)
	}
	got := w.Device().Resources().SnapshotVariables()["n"]
	if got == nil || got.Float32s()[0] != 1 {
		t.Fatalf("counter = %v after a duplicate delivery, want 1 (no double apply)", got)
	}
	// A fresh step ID (a master retry) still runs.
	if _, err := w.RunGraph(&RunGraphReq{Handle: bumpResp.Handle, StepID: 3}); err != nil {
		t.Fatal(err)
	}
	if got := w.Device().Resources().SnapshotVariables()["n"].Float32s()[0]; got != 2 {
		t.Fatalf("counter = %v after a fresh step, want 2", got)
	}
}
