package train

// Tests that look at where a replica's nodes land. Nothing did for fifteen
// PRs, which is how the first PS task came to run every worker's backward
// pass and every embedding lookup shipped its whole table: the arithmetic was
// right on any placement, so no parity test could see it.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/placement"
	"repro/tf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

const (
	plBatch, plIn, plHidden = 4, 8, 16
	plVocab, plDim, plIDs   = 64, 8, 12
)

// denseTower is a three-layer MLP, six parameters: the shape of ps_dense_tcp.
func denseTower(rb *ReplicaGraph) (*Model, error) {
	x := rb.Placeholder("x", tf.Float32, tf.Shape{plBatch, plIn})
	y := rb.Placeholder("y", tf.Float32, tf.Shape{plBatch, 1})
	h, in := x, plIn
	for l, out := range []int{plHidden, plHidden, 1} {
		w := rb.Variable(fmt.Sprintf("l%d/w", l), tf.NewTensor(tf.Float32, tf.Shape{in, out}))
		b := rb.Variable(fmt.Sprintf("l%d/b", l), tf.NewTensor(tf.Float32, tf.Shape{out}))
		h = rb.BiasAdd(rb.MatMul(h, w.Value()), b.Value())
		if out != 1 {
			h = rb.Relu(h)
		}
		in = out
	}
	loss := rb.Mean(rb.Square(rb.Sub(h, y)), nil, false)
	return &Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}, nil
}

// embeddingTower is a table read by Gather(emb.Value(), idx) under a linear
// head, three parameters: the shape of ps_sparse_tcp.
func embeddingTower(rb *ReplicaGraph) (*Model, error) {
	idx := rb.Placeholder("idx", tf.Int32, tf.Shape{plIDs})
	y := rb.Placeholder("y", tf.Float32, tf.Shape{plIDs, 1})
	emb := rb.Variable("emb", tf.NewTensor(tf.Float32, tf.Shape{plVocab, plDim}))
	w := rb.Variable("head/w", tf.NewTensor(tf.Float32, tf.Shape{plDim, 1}))
	b := rb.Variable("head/b", tf.NewTensor(tf.Float32, tf.Shape{1}))
	pred := rb.Add(rb.MatMul(rb.Gather(emb.Value(), idx), w.Value()), b.Value())
	loss := rb.Mean(rb.Square(rb.Sub(pred, y)), nil, false)
	return &Model{Loss: loss, Inputs: map[string]tf.Output{"idx": idx, "y": y}}, nil
}

// crossEdge is one tensor a step moves between devices.
type crossEdge struct {
	src, dst string // devices
	endpoint string // the producing endpoint in the replica's graph
	spec     string // dtype[shape]
	bytes    int
}

// stepLayout is one replica's training step as its master lays it out.
type stepLayout struct {
	g     *graph.Graph
	on    map[string]string // node name → device, for the step's own nodes
	edges []crossEdge       // cross-device data edges (control edges excluded)
	nodes map[string]int    // device → nodes its partition registers, Send/Recv and feeds included
}

// layOut compiles worker wi's training step the way Master.compile does —
// pipeline, remap, prune, place, partition — without registering anything.
// raw[wi] is the graph the ModelFn built into. The default device is the
// cluster's first, /job:ps/task:0, not the replica's worker as in its own
// master: what keeps a node off the PS here is a constraint it carries, so
// a gradient node emitted without one shows.
func layOut(t *testing.T, r *Replicated, raw []*graph.Graph, wi int) *stepLayout {
	t.Helper()
	rep, g := r.reps[wi], raw[wi]
	res, err := graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var feeds []graph.Endpoint
	for _, in := range rep.model.Inputs {
		feeds = append(feeds, in.Unwrap())
	}
	var fetches []graph.Endpoint
	for _, f := range append([]graph.Endpoint{rep.lossEP}, rep.gradEPs...) {
		fetches = append(fetches, graph.Remap(res.Replaced, f))
	}
	set, err := graph.Prune(g, feeds, fetches, rep.trainTargets)
	if err != nil {
		t.Fatal(err)
	}
	devices := r.opts.Cluster.Devices()
	asg, err := placement.Place(g, set, devices, devices[0])
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(g, set, asg, feeds, fetches, rep.trainTargets)
	if err != nil {
		t.Fatal(err)
	}
	l := &stepLayout{g: g, on: map[string]string{}, nodes: map[string]int{}}
	for id := range set {
		l.on[g.Node(id).Name()] = taskOf(asg[id].String())
	}
	for dev, p := range parts.Parts {
		l.nodes[taskOf(dev)] = p.Graph.NumNodes()
		for _, n := range p.Graph.Nodes() {
			if n.Op() != "Send" || strings.HasPrefix(n.Name(), "ctrl_send/") {
				continue
			}
			in := n.Input(0)
			endpoint := strings.TrimPrefix(n.AttrString("tensor_name", ""), "edge:")
			if first := in.Node.Inputs(); len(first) > 0 && first[0].Spec().IsRef {
				endpoint += " of " + first[0].Node.Name() // a Read is named Read_3, not after its variable
			}
			l.edges = append(l.edges, crossEdge{
				src:      taskOf(n.AttrString("send_device", "")),
				dst:      taskOf(n.AttrString("recv_device", "")),
				endpoint: endpoint,
				spec:     fmt.Sprintf("%v%v", in.DType(), in.Shape()),
				bytes:    in.Bytes(),
			})
		}
	}
	sort.Slice(l.edges, func(i, j int) bool { return l.edges[i].String() < l.edges[j].String() })
	return l
}

func taskOf(dev string) string { return strings.TrimSuffix(dev, "/device:CPU:0") }

func (e crossEdge) String() string {
	return fmt.Sprintf("%s → %s  %s  %s  %d", e.src, e.dst, e.endpoint, e.spec, e.bytes)
}

// replicated builds a two-PS, two-worker trainer over model without bringing
// a cluster up behind it, and returns each replica's raw graph beside it.
func replicated(t *testing.T, model ModelFn, opts ReplicatedOptions) (*Replicated, []*graph.Graph) {
	t.Helper()
	opts.Cluster = distributed.ClusterSpec{"ps": make([]string, 2), "worker": make([]string, 2)}
	opts.Resolver = distributed.NewInProcCluster(opts.Cluster).Resolver()
	var raw []*graph.Graph
	r, err := NewReplicated(opts, func(rb *ReplicaGraph) (*Model, error) {
		raw = append(raw, rb.Raw())
		return model(rb)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, raw
}

var plModels = []struct {
	name   string
	model  ModelFn
	params int
	// pulled is the bytes a step moves shard → worker: every parameter once,
	// except that of the table only the gathered rows.
	pulled int
}{
	{"dense", denseTower, 6, 4 * (plIn*plHidden + plHidden + plHidden*plHidden + plHidden + plHidden + 1)},
	{"embedding", embeddingTower, 3, 4 * (plIDs*plDim + plDim + 1)},
}

func TestReplicaStepPlacement(t *testing.T) {
	const wi = 1
	worker := distributed.TaskName("worker", wi)
	for _, m := range plModels {
		for _, sync := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/sync=%v", m.name, sync), func(t *testing.T) {
				r, raw := replicated(t, m.model, ReplicatedOptions{Sync: sync, Optimizer: &GradientDescent{LearningRate: 0.1}})
				l := layOut(t, r, raw, wi)

				// Async's global-step bump is the one thing a PS task computes
				// that is not on a reference edge: a constant one, held back
				// until the update has applied.
				bump := graph.NodeSet{}
				if !sync {
					for stack := r.reps[wi].trainTargets[1:]; len(stack) > 0; {
						n := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						bump.Add(n)
						for _, in := range n.Inputs() {
							stack = append(stack, in.Node)
						}
					}
				}
				grads := 0
				for name, dev := range l.on {
					n := l.g.ByName(name)
					if strings.HasPrefix(name, "gradients/") {
						grads++
						if dev != worker {
							t.Errorf("%s (%s) is on %s; the backward pass belongs on %s", name, n.Op(), dev, worker)
							continue
						}
					}
					if !strings.HasPrefix(dev, "/job:ps/") || n.Op() == "Variable" || bump[n.ID()] {
						continue
					}
					holdsRef := false
					for _, in := range n.Inputs() {
						holdsRef = holdsRef || in.Spec().IsRef
					}
					if !holdsRef {
						t.Errorf("%s (%s) is on %s without holding a reference edge; PS tasks hold state, not compute", name, n.Op(), dev)
					}
				}
				if grads == 0 {
					t.Fatal("the step has no gradients/ node")
				}

				// One edge per parameter read, shard → worker; async sends each
				// gradient back, worker → shard (a sparse one as its values —
				// its indices are the fed ids, which the master hands to the
				// shard's partition directly).
				down, up, bytesDown := 0, 0, 0
				for _, e := range l.edges {
					switch {
					case strings.HasPrefix(e.src, "/job:ps/") && e.dst == worker:
						down++
						bytesDown += e.bytes
					case e.src == worker && strings.HasPrefix(e.dst, "/job:ps/"):
						up++
					default:
						t.Errorf("unexpected edge %v", e)
					}
				}
				wantUp := 0
				if !sync {
					wantUp = m.params
				}
				if down != m.params || up != wantUp {
					t.Errorf("%d edges shard → worker and %d worker → shard, want %d and %d:\n%v", down, up, m.params, wantUp, l.edges)
				}
				if bytesDown != m.pulled {
					t.Errorf("the step pulls %d bytes from the shards, want %d (parameters once each; of a table, the gathered rows)", bytesDown, m.pulled)
				}
			})
		}
	}
}

// TestReplicaDefaultDeviceIsItsWorker: what a model leaves unconstrained goes
// to the replica's own worker task, not to the cluster's first device — a PS
// task. A stray variable makes where it went observable.
func TestReplicaDefaultDeviceIsItsWorker(t *testing.T) {
	spec := distributed.ClusterSpec{"ps": make([]string, 1), "worker": make([]string, 1)}
	cluster := distributed.NewInProcCluster(spec)
	r, err := NewReplicated(ReplicatedOptions{Cluster: spec, Resolver: cluster.Resolver(),
		Optimizer: &GradientDescent{LearningRate: 0.1}},
		func(rb *ReplicaGraph) (*Model, error) {
			rb.WithDevice("").NewVariableFromTensor("stray", tf.Scalar(0))
			return repModel(rb)
		})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	for task, w := range cluster.Workers {
		names := strings.Join(w.Device().Resources().VariableNames(), " ")
		if has := strings.Contains(names, "stray"); has != (task == "/job:worker/task:0") {
			t.Errorf("%s holds [%s]; the unconstrained variable belongs on the replica's worker", task, names)
		}
	}
}

// TestReplicaPlacementGolden pins worker 0's sync step for both models: every
// tensor that crosses a device boundary and how many nodes each task
// registers, so a change that moves a node across a boundary shows up as a
// diff in review. Refresh with `make golden`.
func TestReplicaPlacementGolden(t *testing.T) {
	var snapshot strings.Builder
	for _, m := range plModels {
		r, raw := replicated(t, m.model, ReplicatedOptions{Sync: true, Optimizer: &Momentum{LearningRate: 0.05, Decay: 0.9}})
		l := layOut(t, r, raw, 0)
		fmt.Fprintf(&snapshot, "# %s: src → dst  endpoint  dtype[shape]  bytes\n", m.name)
		for _, e := range l.edges {
			fmt.Fprintln(&snapshot, e)
		}
		var devs []string
		for dev := range l.nodes {
			devs = append(devs, dev)
		}
		sort.Strings(devs)
		for _, dev := range devs {
			fmt.Fprintf(&snapshot, "%s  %d nodes\n", dev, l.nodes[dev])
		}
	}
	got := snapshot.String()

	path := filepath.Join("testdata", "replica_placement.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `make golden`): %v", err)
	}
	if got != string(want) {
		t.Errorf("replica placement drifted from the golden snapshot.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
