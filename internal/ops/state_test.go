package ops_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestConcurrentSnapshotsStayStable runs steps that read, densely update and
// sparsely update one variable from several goroutines at once. Read and
// AssignSub hand out the variable's own tensor, and ScatterAdd writes in
// place, so what keeps a fetched tensor still is the copy ScatterAdd takes
// when the value has been seen: every tensor fetched here must still equal
// the copy made when it arrived, and the race detector must see no write
// into one.
func TestConcurrentSnapshotsStayStable(t *testing.T) {
	g := graph.New()
	add := func(op string, inputs []graph.Endpoint, attrs map[string]any) *graph.Node {
		t.Helper()
		n, err := g.AddNode(op, inputs, graph.NodeArgs{Attrs: attrs})
		if err != nil {
			t.Fatalf("AddNode(%s): %v", op, err)
		}
		return n
	}
	constant := func(v *tensor.Tensor) graph.Endpoint {
		return add("Const", nil, map[string]any{"value": v}).Out(0)
	}
	shape := tensor.Shape{8, 16}
	v := add("Variable", nil, map[string]any{"dtype": tensor.Float32, "shape": shape}).Out(0)
	init := add("Assign", []graph.Endpoint{v, constant(tensor.Fill(tensor.New, tensor.Float32, shape, 1000))}, nil)
	read := add("Read", []graph.Endpoint{v}, nil)
	sub := add("AssignSub", []graph.Endpoint{v, constant(tensor.Scalar(1))}, nil)
	scatter := add("ScatterAdd", []graph.Endpoint{v,
		constant(tensor.FromInt32s(tensor.Shape{2}, []int32{0, 5})),
		constant(tensor.Fill(tensor.New, tensor.Float32, tensor.Shape{2, 16}, 3))}, nil)

	compile := func(fetch *graph.Node, target *graph.Node) *exec.Executable {
		t.Helper()
		var fetches []graph.Endpoint
		var targets []*graph.Node
		if fetch != nil {
			fetches = []graph.Endpoint{fetch.Out(0)}
		}
		if target != nil {
			targets = []*graph.Node{target}
		}
		ex, err := exec.Compile(g, nil, fetches, targets, "CPU")
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	rm := device.NewResourceManager()
	var stepID atomic.Int64
	run := func(ex *exec.Executable) ([]*tensor.Tensor, error) {
		return ex.Run(exec.RunParams{Resources: rm, StepID: stepID.Add(1)})
	}
	if _, err := run(compile(nil, init)); err != nil {
		t.Fatal(err)
	}

	const goroutinesPerKind, steps = 2, 200
	var wg sync.WaitGroup
	for _, ex := range []*exec.Executable{compile(read, nil), compile(sub, nil), compile(nil, scatter)} {
		for i := 0; i < goroutinesPerKind; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				type snapshot struct{ fetched, copied *tensor.Tensor }
				var held []snapshot
				for s := 0; s < steps; s++ {
					out, err := run(ex)
					if err != nil {
						t.Error(err)
						return
					}
					if len(out) == 1 {
						held = append(held, snapshot{out[0], out[0].Clone()})
					}
				}
				for i, h := range held {
					if !h.fetched.Equal(h.copied) {
						t.Errorf("tensor fetched at step %d changed afterwards: %v, was %v", i, h.fetched, h.copied)
						return
					}
				}
			}()
		}
	}
	wg.Wait()

	// Nothing was lost either: 400 dense decrements everywhere, 400 sparse
	// increments of 3 on rows 0 and 5.
	out, err := run(compile(read, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range out[0].Float32s() {
		want := float32(1000 - goroutinesPerKind*steps)
		if row := i / 16; row == 0 || row == 5 {
			want += 3 * goroutinesPerKind * steps
		}
		if x != want {
			t.Fatalf("element %d = %v after all updates, want %v", i, x, want)
		}
	}
}
