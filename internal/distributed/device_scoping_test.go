package distributed

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/placement"
	"repro/tf"
)

// TestDeviceScopedTFGraphRunsDistributed drives the whole §3.3 pipeline
// from the public client API: a graph built under two tf.WithDevice scopes
// is placed onto two tasks, partitioned with Send/Recv at the cut, and
// executed by the master across an in-process cluster — matching the
// numbers a single-device local session produces for the same graph.
func TestDeviceScopedTFGraphRunsDistributed(t *testing.T) {
	g := tf.NewGraph()
	d0 := g.WithDevice("/job:worker/task:0")
	d1 := g.WithDevice("/job:worker/task:1")
	// A fed placeholder keeps the graph from constant-folding away: real
	// tensors must cross the device cut at h → Square.
	x := d0.Placeholder("x", tf.Float32, tf.Shape{2, 2})
	h := d0.MatMul(x, x)
	out := d1.Sum(d1.Square(h), nil, false)
	g.Must()
	xVal := tf.FromFloat32s(tf.Shape{2, 2}, []float32{1, 2, 3, 4})

	// Single-device reference: the local session ignores device
	// constraints entirely.
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	want, err := sess.Fetch1(map[tf.Output]*tf.Tensor{x: xVal}, out)
	if err != nil {
		t.Fatal(err)
	}

	spec := ClusterSpec{"worker": make([]string, 2)}
	cluster := NewInProcCluster(spec)

	// The scopes produce a genuine two-device placement.
	set, err := graph.Prune(g.Raw(), []graph.Endpoint{x.Unwrap()}, []graph.Endpoint{out.Unwrap()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	devices := spec.Devices()
	asg, err := placement.Place(g.Raw(), set, devices, devices[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := len(asg.Devices()); n != 2 {
		t.Fatalf("placement used %d devices, want 2", n)
	}

	master, err := NewMaster(g.Raw(), spec, cluster.Resolver(), MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := master.Run(map[graph.Endpoint]*tf.Tensor{x.Unwrap(): xVal}, []graph.Endpoint{out.Unwrap()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].FloatAt(0) != want.FloatAt(0) {
		t.Errorf("distributed result %v != local result %v", got[0].FloatAt(0), want.FloatAt(0))
	}
}
