package partition_test

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/graph"
	_ "repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/placement"
	"repro/internal/tensor"
)

// buildPlaced builds a two-device graph: Const+Neg on worker 0, a second
// Neg on worker 1 (one edge crossing).
func buildPlaced(t *testing.T) (*graph.Graph, graph.NodeSet, placement.Assignment, *graph.Node) {
	t.Helper()
	g := graph.New()
	a, _ := g.AddNode("Const", nil, graph.NodeArgs{
		Name: "a", Attrs: map[string]any{"value": tensor.Scalar(2)},
		Device: "/job:worker/task:0",
	})
	b, _ := g.AddNode("Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{
		Name: "b", Device: "/job:worker/task:0",
	})
	c, err := g.AddNode("Neg", []graph.Endpoint{b.Out(0)}, graph.NodeArgs{
		Name: "c", Device: "/job:worker/task:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	set, _ := graph.Prune(g, nil, []graph.Endpoint{c.Out(0)}, nil)
	devs := mustSpecs(t, []string{"/job:worker/task:0/device:CPU:0", "/job:worker/task:1/device:CPU:0"})
	asg, err := placement.Place(g, set, devs, devs[0])
	if err != nil {
		t.Fatal(err)
	}
	return g, set, asg, c
}

func mustSpecs(t *testing.T, names []string) []device.Spec {
	t.Helper()
	out := make([]device.Spec, len(names))
	for i, n := range names {
		s, err := device.ParseSpec(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func TestPartitionInsertsSendRecvPairs(t *testing.T) {
	g, set, asg, c := buildPlaced(t)
	res, err := partition.Partition(g, set, asg, nil, []graph.Endpoint{c.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 2 {
		t.Fatalf("got %d parts", len(res.Parts))
	}
	p0 := res.Parts["/job:worker/task:0/device:CPU:0"]
	p1 := res.Parts["/job:worker/task:1/device:CPU:0"]
	if p0 == nil || p1 == nil {
		t.Fatal("missing parts")
	}
	// Send on the producer side, Recv on the consumer side, matching
	// tensor_name (§3.3).
	var sendName, recvName string
	for _, n := range p0.Graph.Nodes() {
		if n.Op() == "Send" {
			sendName = n.AttrString("tensor_name", "")
		}
		if n.Op() == "Recv" {
			t.Error("unexpected Recv in producer partition")
		}
	}
	for _, n := range p1.Graph.Nodes() {
		if n.Op() == "Recv" {
			recvName = n.AttrString("tensor_name", "")
		}
		if n.Op() == "Send" {
			t.Error("unexpected Send in consumer partition")
		}
	}
	if sendName == "" || sendName != recvName {
		t.Errorf("send/recv keys: %q vs %q", sendName, recvName)
	}
	// The fetch maps to the consumer partition.
	if _, ok := p1.Fetches[c.Out(0)]; !ok {
		t.Error("fetch not recorded in consumer partition")
	}
}

func TestPartitionDeduplicatesSends(t *testing.T) {
	// Two consumers of the same remote edge share one Send/Recv pair.
	g := graph.New()
	a, _ := g.AddNode("Const", nil, graph.NodeArgs{
		Name: "a", Attrs: map[string]any{"value": tensor.Scalar(2)}, Device: "/job:worker/task:0",
	})
	n1, _ := g.AddNode("Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "n1", Device: "/job:worker/task:1"})
	n2, _ := g.AddNode("Square", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "n2", Device: "/job:worker/task:1"})
	set, _ := graph.Prune(g, nil, []graph.Endpoint{n1.Out(0), n2.Out(0)}, nil)
	devs := mustSpecs(t, []string{"/job:worker/task:0/device:CPU:0", "/job:worker/task:1/device:CPU:0"})
	asg, _ := placement.Place(g, set, devs, devs[0])
	res, err := partition.Partition(g, set, asg, nil, []graph.Endpoint{n1.Out(0), n2.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sends, recvs := 0, 0
	for _, p := range res.Parts {
		for _, n := range p.Graph.Nodes() {
			switch n.Op() {
			case "Send":
				sends++
			case "Recv":
				recvs++
			}
		}
	}
	if sends != 1 || recvs != 1 {
		t.Errorf("sends=%d recvs=%d, want 1/1 (deduplicated)", sends, recvs)
	}
}

func TestPartitionFeedsBecomeLocalPlaceholders(t *testing.T) {
	g := graph.New()
	ph, _ := g.AddNode("Placeholder", nil, graph.NodeArgs{
		Name: "x", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{2}},
	})
	n, _ := g.AddNode("Neg", []graph.Endpoint{ph.Out(0)}, graph.NodeArgs{Name: "n", Device: "/job:worker/task:1"})
	feeds := []graph.Endpoint{ph.Out(0)}
	set, _ := graph.Prune(g, feeds, []graph.Endpoint{n.Out(0)}, nil)
	devs := mustSpecs(t, []string{"/job:worker/task:0/device:CPU:0", "/job:worker/task:1/device:CPU:0"})
	asg, _ := placement.Place(g, set, devs, devs[0])
	res, err := partition.Partition(g, set, asg, feeds, []graph.Endpoint{n.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.Parts["/job:worker/task:1/device:CPU:0"]
	if p1 == nil {
		t.Fatal("consumer partition missing")
	}
	local, ok := p1.Feeds[ph.Out(0)]
	if !ok {
		t.Fatal("feed not mapped to a local placeholder")
	}
	if local.Node.Op() != "Placeholder" {
		t.Errorf("feed mapped to %s", local.Node.Op())
	}
}

func TestPartitionCrossDeviceControlEdge(t *testing.T) {
	g := graph.New()
	a, _ := g.AddNode("Const", nil, graph.NodeArgs{
		Name: "a", Attrs: map[string]any{"value": tensor.Scalar(1)}, Device: "/job:worker/task:0",
	})
	// b on task 1 has a control dependency on a (task 0).
	b, _ := g.AddNode("Const", nil, graph.NodeArgs{
		Name: "b", Attrs: map[string]any{"value": tensor.Scalar(2)},
		Device: "/job:worker/task:1", Control: []*graph.Node{a},
	})
	set, _ := graph.Prune(g, nil, []graph.Endpoint{b.Out(0)}, nil)
	devs := mustSpecs(t, []string{"/job:worker/task:0/device:CPU:0", "/job:worker/task:1/device:CPU:0"})
	asg, _ := placement.Place(g, set, devs, devs[0])
	res, err := partition.Partition(g, set, asg, nil, []graph.Endpoint{b.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The control edge is carried by a dummy Send/Recv pair.
	var foundSend, foundCtl bool
	for _, p := range res.Parts {
		for _, n := range p.Graph.Nodes() {
			if n.Op() == "Send" && strings.Contains(n.AttrString("tensor_name", ""), "ctrl:") {
				foundSend = true
			}
			if n.Name() == "b" {
				for _, c := range n.ControlInputs() {
					if c.Op() == "Recv" {
						foundCtl = true
					}
				}
			}
		}
	}
	if !foundSend || !foundCtl {
		t.Errorf("control crossing not wired: send=%t ctl=%t", foundSend, foundCtl)
	}
}

// A cross-device edge whose row count is dynamic must keep the dimensions it
// does know on the receiving side: a Recv without them infers a scalar, and
// copying a consumer that needs a rank (here a Gather) into the partition
// fails shape inference.
func TestPartitionKeepsPartialShapesAcrossDevices(t *testing.T) {
	g := graph.New()
	must := func(op string, ins []graph.Endpoint, args graph.NodeArgs) *graph.Node {
		n, err := g.AddNode(op, ins, args)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	const src, dst = "/job:worker/task:0", "/job:worker/task:1"
	rows := must("Placeholder", nil, graph.NodeArgs{Name: "rows", Device: src,
		Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{-1, 8}}})
	half := must("Neg", []graph.Endpoint{rows.Out(0)}, graph.NodeArgs{Name: "half", Device: src})
	idx := must("Const", nil, graph.NodeArgs{Name: "idx", Device: dst,
		Attrs: map[string]any{"value": tensor.FromInt32s(tensor.Shape{2}, []int32{1, 0})}})
	picked := must("Gather", []graph.Endpoint{half.Out(0), idx.Out(0)}, graph.NodeArgs{Name: "picked", Device: dst})

	feeds, fetches := []graph.Endpoint{rows.Out(0)}, []graph.Endpoint{picked.Out(0)}
	set, _ := graph.Prune(g, feeds, fetches, nil)
	devs := mustSpecs(t, []string{src + "/device:CPU:0", dst + "/device:CPU:0"})
	asg, err := placement.Place(g, set, devs, devs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(g, set, asg, feeds, fetches, nil)
	if err != nil {
		t.Fatal(err)
	}
	local := res.Parts[dst+"/device:CPU:0"].Fetches[picked.Out(0)]
	if !local.Shape().Equal(tensor.Shape{2, 8}) {
		t.Errorf("the copied Gather infers %v, want [2 8]", local.Shape())
	}
}
