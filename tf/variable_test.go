package tf_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/tf"
	"repro/tf/train"
)

// A variable's value is copy-on-write: a tensor the session has handed out,
// or been handed, is never written again. The three tests below hold a
// tensor across a later write and check it did not move.

func matrix2x2(vals ...float32) *tf.Tensor { return tf.FromFloat32s(tf.Shape{2, 2}, vals) }

func wantValues(t *testing.T, what string, got *tf.Tensor, want ...float32) {
	t.Helper()
	for i, w := range want {
		if got.Float32s()[i] != w {
			t.Errorf("%s = %v, want %v", what, got.Float32s(), want)
			return
		}
	}
}

// TestFetchedUpdateIsStable: the tensor fetched from AssignSub/AssignAdd is
// the variable's new value itself, and a sparse write in a later step writes
// in place — so it must take its own copy first.
func TestFetchedUpdateIsStable(t *testing.T) {
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", matrix2x2(1, 2, 3, 4))
	sub := v.AssignSub(g.Const(float32(1)))
	add := v.AssignAdd(g.Const(float32(5)))
	scatter := v.ScatterAdd(g.Const([]int32{0}), g.Const([][]float32{{10, 10}}))
	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	fetchedSub, err := s.Fetch1(nil, sub.Output(0))
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignSub", fetchedSub, 0, 1, 2, 3)
	if err := s.RunTargets(scatter); err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignSub's fetched tensor after ScatterAdd", fetchedSub, 0, 1, 2, 3)
	fetchedAdd, err := s.Fetch1(nil, add.Output(0))
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignAdd", fetchedAdd, 15, 16, 7, 8)
	if err := s.RunTargets(scatter); err != nil {
		t.Fatal(err)
	}
	wantValues(t, "AssignAdd's fetched tensor after ScatterAdd", fetchedAdd, 15, 16, 7, 8)
	now, err := s.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "v", now, 25, 26, 7, 8)
}

// TestFedTensorReusedAfterAssign: the caller owns what it feeds and may
// overwrite it once Run returns; the variable must hold a copy.
func TestFedTensorReusedAfterAssign(t *testing.T) {
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", matrix2x2(0, 0, 0, 0))
	x := g.Placeholder("x", tf.Float32, tf.Shape{2, 2})
	// Through an Identity too: the fed buffer then reaches Assign on an edge
	// the executor does not know is fed.
	direct, forwarded := v.Assign(x), v.Assign(g.Identity(x))
	s := newSession(t, g)
	for _, assign := range []*tf.Operation{direct, forwarded} {
		fed := matrix2x2(1, 2, 3, 4)
		out, err := s.Fetch1(map[tf.Output]*tf.Tensor{x: fed}, assign.Output(0))
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "Assign", out, 1, 2, 3, 4)
		for i := range fed.Float32s() {
			fed.Float32s()[i] = -1
		}
		now, err := s.Fetch1(nil, v.Value())
		if err != nil {
			t.Fatal(err)
		}
		wantValues(t, "v after the fed buffer was overwritten", now, 1, 2, 3, 4)
	}
}

// TestReadSnapshotAcrossScatter: Read no longer copies, so the copy has to
// happen at the in-place writer — once, not once per write.
func TestReadSnapshotAcrossScatter(t *testing.T) {
	g := tf.NewGraph()
	v := g.NewVariableFromTensor("v", matrix2x2(1, 2, 3, 4))
	scatter := v.ScatterSub(g.Const([]int32{1}), g.Const([][]float32{{1, 1}}))
	s := newSession(t, g)
	if err := s.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.RunTargets(scatter); err != nil {
			t.Fatal(err)
		}
	}
	wantValues(t, "snapshot read before two ScatterSubs", snap, 1, 2, 3, 4)
	now, err := s.Fetch1(nil, v.Value())
	if err != nil {
		t.Fatal(err)
	}
	wantValues(t, "v", now, 1, 2, 1, 2)
}

// runFunc runs one step of a session or a master.
type runFunc func(fetches []tf.Output, targets ...*tf.Operation) ([]*tf.Tensor, error)

func sessionRun(t *testing.T, g *tf.Graph) (*tf.Session, runFunc) {
	t.Helper()
	s := newSession(t, g)
	t.Cleanup(s.Close)
	return s, func(fetches []tf.Output, targets ...*tf.Operation) ([]*tf.Tensor, error) {
		return s.Run(nil, fetches, targets...)
	}
}

// current returns v's value in res without handing it out, so a test can
// watch the buffer a step then lends or sends.
func current(t *testing.T, res ops.Resources, v *tf.Variable) *tf.Tensor {
	t.Helper()
	var cur *tf.Tensor
	if err := res.FindOrCreateVariable(v.Name(), v.DType(), v.Shape()).WithValue(func(t *tf.Tensor) error {
		cur = t
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestHandedOutValuesAreNeverRewritten: an update writes into a spare buffer
// that no lease or escape holds. Each route below hands the variable's value
// out for good, or leaves a lease out that never comes back (a step aborted
// between the Read and its consumer); the tensor handed out must keep its
// elements through twenty more updates whose own reads are leased, so that
// they do recycle buffers.
func TestHandedOutValuesAreNeverRewritten(t *testing.T) {
	const workers = "/job:worker/task:"
	for _, route := range []struct {
		name string
		// build adds the route to g and returns how a step runs and what
		// hands v's current value out.
		build func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor)
	}{
		{"fetched Read", func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor) {
			_, run := sessionRun(t, g)
			return run, func() *tf.Tensor { return fetch(t, run, v.Value(), update) }
		}},
		{"Read into Identity", func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor) {
			id := g.Identity(v.Value())
			_, run := sessionRun(t, g)
			return run, func() *tf.Tensor { return fetch(t, run, id, update) }
		}},
		{"Read into Enter", func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor) {
			// The loop forwards the value it entered with to its Exit.
			outs := g.While([]tf.Output{g.Const(int32(0)), v.Value()}, nil,
				func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], g.Const(int32(2))) },
				func(vars, _ []tf.Output) []tf.Output { return []tf.Output{g.Add(vars[0], g.Const(int32(1))), vars[1]} })
			_, run := sessionRun(t, g)
			return run, func() *tf.Tensor { return fetch(t, run, outs[1], update) }
		}},
		{"Read into Send", func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor) {
			far := g.WithDevice(workers + "1").Neg(v.Value())
			spec := distributed.ClusterSpec{"worker": make([]string, 2)}
			cluster := distributed.NewInProcCluster(spec)
			master, err := distributed.NewMaster(g.Raw(), spec, cluster.Resolver(), distributed.MasterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			run := func(fetches []tf.Output, targets ...*tf.Operation) ([]*tf.Tensor, error) {
				eps := make([]graph.Endpoint, len(fetches))
				for i, f := range fetches {
					eps[i] = f.Unwrap()
				}
				nodes := make([]*graph.Node, len(targets))
				for i, op := range targets {
					nodes[i] = op.Node()
				}
				return master.Run(nil, eps, nodes, nil)
			}
			// The step sends the variable's current buffer to task 1.
			return run, func() *tf.Tensor {
				sent := current(t, cluster.Workers[workers+"0"].Device().Resources(), v)
				fetch(t, run, far)
				return sent
			}
		}},
		{"SnapshotVariables", func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor) {
			s, run := sessionRun(t, g)
			return run, func() *tf.Tensor { return s.Core().Device().Resources().SnapshotVariables()[v.Name()] }
		}},
		{"fetched AssignSub", func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor) {
			_, run := sessionRun(t, g)
			return run, func() *tf.Tensor { return fetch(t, run, update.Output(0)) }
		}},
		{"aborted step", func(t *testing.T, g *tf.Graph, v *tf.Variable, update *tf.Operation) (runFunc, func() *tf.Tensor) {
			// CountUpTo, ordered after the Read, fails at once (the limit is
			// 0), so the step ends before the Add that would end the lease.
			counter := g.NewVariableFromTensor("counter", tf.ScalarInt(0))
			failing := g.Builder().Node("CountUpTo", []graph.Endpoint{counter.Ref().Unwrap()}, "", map[string]any{"limit": 0},
				v.Value().Op().Node())
			sum := g.Add(v.Value(), g.Cast(g.WrapOutput(failing.Out(0)), tf.Float32))
			s, run := sessionRun(t, g)
			return run, func() *tf.Tensor {
				lent := current(t, s.Core().Device().Resources(), v)
				if _, err := run([]tf.Output{sum}); err == nil || !strings.Contains(err.Error(), "limit") {
					t.Fatalf("step with a failing CountUpTo: err = %v", err)
				}
				return lent
			}
		}},
	} {
		t.Run(route.name, func(t *testing.T) {
			g := tf.NewGraph()
			init := make([]float32, 16)
			for i := range init {
				init[i] = float32(i) + 0.5
			}
			v := g.WithDevice(workers+"0").NewVariableFromTensor("v", tf.FromFloat32s(tf.Shape{4, 4}, init))
			// v ← v − (v/4 + 1): the Read feeds a Mul, so it is leased.
			update := v.AssignSub(g.Add(g.Mul(v.Value(), g.Const(float32(0.25))), g.Const(float32(1))))
			run, handOut := route.build(t, g, v, update)
			if _, err := run(nil, g.InitOp()); err != nil {
				t.Fatal(err)
			}
			step := func() {
				t.Helper()
				if _, err := run(nil, update); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				step()
			}
			handed := handOut()
			want := handed.Clone()
			for i := 0; i < 20; i++ {
				step()
			}
			if !handed.Equal(want) {
				t.Errorf("handed-out value rewritten by later updates: %v, was %v", handed.Float32s(), want.Float32s())
			}
		})
	}
}

func fetch(t *testing.T, run runFunc, out tf.Output, targets ...*tf.Operation) *tf.Tensor {
	t.Helper()
	got, err := run([]tf.Output{out}, targets...)
	if err != nil {
		t.Fatal(err)
	}
	return got[0]
}

// TestLeasedUpdatesMatchCopyingUpdates trains a three-layer MLP with Momentum
// twice: once as a training loop does, every Read leased and every update
// written into its variable's spare, and once also fetching every Read, which
// makes each one an escape and each update allocate. Buffer reuse must not
// be observable: every loss and parameter agrees bit for bit. Once warm, each
// parameter of the leased run alternates between two buffers.
func TestLeasedUpdatesMatchCopyingUpdates(t *testing.T) {
	const steps, warm, batch = 30, 3, 8
	widths := []int{16, 32, 32, 4}
	type trained struct {
		losses []float32
		params map[string]*tf.Tensor
	}
	train := func(fetchReads bool) trained {
		g := tf.NewGraph()
		rng := tf.NewRNG(7)
		x := g.Placeholder("x", tf.Float32, tf.Shape{batch, widths[0]})
		y := g.Placeholder("y", tf.Int32, tf.Shape{batch})
		var vars []*tf.Variable
		cur := x
		for i := 0; i+1 < len(widths); i++ {
			w := g.NewVariableFromTensor(fmt.Sprintf("w%d", i), rng.Normal(tf.Float32, tf.Shape{widths[i], widths[i+1]}, 0, 0.3))
			b := g.NewVariableFromTensor(fmt.Sprintf("b%d", i), rng.Normal(tf.Float32, tf.Shape{widths[i+1]}, 0, 0.1))
			vars = append(vars, w, b)
			cur = g.BiasAdd(g.MatMul(cur, w.Value()), b.Value())
			if i+2 < len(widths) {
				cur = g.Relu(cur)
			}
		}
		loss := g.Mean(g.SparseSoftmaxCrossEntropy(cur, y), nil, false)
		op, err := (&train.Momentum{LearningRate: 0.1, Decay: 0.9}).Minimize(g, loss, vars)
		if err != nil {
			t.Fatal(err)
		}
		s := newSession(t, g)
		defer s.Close()
		if err := s.RunTargets(g.InitOp()); err != nil {
			t.Fatal(err)
		}
		fetches := []tf.Output{loss}
		if fetchReads {
			for _, v := range vars {
				fetches = append(fetches, v.Value())
			}
		}
		labels := make([]int32, batch)
		for i := range labels {
			labels[i] = int32(i % widths[len(widths)-1])
		}
		feeds := map[tf.Output]*tf.Tensor{x: rng.Normal(tf.Float32, tf.Shape{batch, widths[0]}, 0, 1), y: tf.FromInt32s(tf.Shape{batch}, labels)}
		var res trained
		buffers := make([][]*float32, len(vars))
		for i := 0; i < steps; i++ {
			out, err := s.Run(feeds, fetches, op)
			if err != nil {
				t.Fatal(err)
			}
			res.losses = append(res.losses, out[0].Float32s()[0])
			for k, v := range vars {
				buffers[k] = append(buffers[k], &current(t, s.Core().Device().Resources(), v).Float32s()[0])
			}
		}
		if !fetchReads {
			for k, v := range vars {
				for i := warm + 2; i < steps; i++ {
					if b := buffers[k]; b[i] != b[i-2] || b[i] == b[i-1] {
						t.Errorf("%s after step %d: not alternating between two buffers", v.Name(), i)
						break
					}
				}
			}
		}
		res.params = s.Core().Device().Resources().SnapshotVariables()
		return res
	}
	leased, copied := train(false), train(true)
	for i := range leased.losses {
		if math.Float32bits(leased.losses[i]) != math.Float32bits(copied.losses[i]) {
			t.Errorf("step %d: loss %v leased, %v copied", i, leased.losses[i], copied.losses[i])
		}
	}
	if len(leased.params) != len(copied.params) {
		t.Fatalf("%d variables leased, %d copied", len(leased.params), len(copied.params))
	}
	for name, p := range leased.params {
		q := copied.params[name]
		for i, x := range p.Float32s() {
			if math.Float32bits(x) != math.Float32bits(q.Float32s()[i]) {
				t.Errorf("%s[%d] = %v leased, %v copied", name, i, x, q.Float32s()[i])
				break
			}
		}
	}
}
