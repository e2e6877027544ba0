package train

// A sync replica's graph ends in a PushGradients node that runs on its
// worker task. These tests hold the node to its contract: it carries the
// whole push — variables, owning shards, dense or sparse, m, the update
// rule — through the GraphDef a master registers; it refuses to run outside
// a distributed task; and a trainer closed while a push waits on a round that
// cannot complete leaves nothing running.

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/tf"
)

// mixedModel has a dense weight and an embedding read by Gather, so its push
// carries one dense and one sparse gradient.
func mixedModel(rb *ReplicaGraph) (*Model, error) {
	x := rb.Placeholder("x", tf.Float32, tf.Shape{repBatch, repFeatures})
	idx := rb.Placeholder("idx", tf.Int32, tf.Shape{embBatch})
	w := rb.Variable("w", tf.NewTensor(tf.Float32, tf.Shape{repFeatures, 1}))
	emb := rb.Variable("emb", embInitial())
	dense := rb.Mean(rb.Square(rb.MatMul(x, w.Value())), nil, false)
	sparse := rb.Mean(rb.Square(rb.Gather(emb.Value(), idx)), nil, false)
	return &Model{Loss: rb.Add(dense, sparse), Inputs: map[string]tf.Output{"x": x, "idx": idx}}, nil
}

// TestPushNodeSurvivesMarshal: the push node of every replica graph keeps
// its spec through Marshal/Unmarshal, the path a master's RegisterGraph
// takes, for each of the six update rules with every field set.
func TestPushNodeSurvivesMarshal(t *testing.T) {
	optimizers := []UpdateRuler{
		&GradientDescent{LearningRate: 0.1},
		&Momentum{LearningRate: 0.02, Decay: 0.9},
		&Adagrad{LearningRate: 0.5, InitialAccum: 0.2},
		&RMSProp{LearningRate: 0.05, Decay: 0.9, Epsilon: 1e-7},
		&Adadelta{LearningRate: 1, Rho: 0.95, Epsilon: 1e-5},
		&Adam{LearningRate: 0.05, Beta1: 0.8, Beta2: 0.99, Epsilon: 1e-7},
	}
	for _, opt := range optimizers {
		rule := opt.UpdateRule()
		t.Run(rule.Algo, func(t *testing.T) {
			spec := distributed.ClusterSpec{"ps": make([]string, 2), "worker": make([]string, 3)}
			var graphs []*tf.Graph
			r, err := NewReplicated(ReplicatedOptions{
				Cluster: spec, Resolver: distributed.NewInProcCluster(spec).Resolver(),
				Optimizer: opt.(Optimizer), Sync: true, Backups: 1, StepRetries: 5,
			}, func(rb *ReplicaGraph) (*Model, error) {
				graphs = append(graphs, rb.root)
				return mixedModel(rb)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			want := distributed.PushSpec{
				Vars: []string{"w", "emb"}, Tasks: []string{"/job:ps/task:0", "/job:ps/task:1"},
				Sparse: []bool{false, true}, NumFresh: 2, Rule: rule,
				StepTask: "/job:ps/task:0", StepName: globalStepName, Retries: 5,
			}
			for wi, g := range graphs {
				bytes, err := g.Raw().Marshal()
				if err != nil {
					t.Fatal(err)
				}
				back, err := graph.Unmarshal(bytes)
				if err != nil {
					t.Fatal(err)
				}
				name := r.reps[wi].pushEP.Node.Name()
				n := back.ByName(name)
				if n == nil {
					t.Fatalf("replica %d: %s lost in the round trip", wi, name)
				}
				got, err := distributed.PushSpecOf(n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replica %d: push spec after the round trip\n%+v\nwant\n%+v", wi, got, want)
				}
				if dev := n.Device(); dev != distributed.TaskName("worker", wi) {
					t.Errorf("replica %d: push placed on %q, want its worker task", wi, dev)
				}
			}
		})
	}
}

// TestPushOpFailsInLocalSession: a PushGradients node has no task to push
// from in a single-process session; running it is an error naming the node,
// not a panic.
func TestPushOpFailsInLocalSession(t *testing.T) {
	g := tf.NewGraph()
	round := g.Placeholder("round", tf.Int64, tf.Shape{})
	spec := distributed.PushSpec{
		Vars: []string{"w"}, Tasks: []string{"/job:ps/task:0"}, Sparse: []bool{false}, NumFresh: 1,
		Rule: (&GradientDescent{LearningRate: 0.1}).UpdateRule(), StepTask: "/job:ps/task:0", StepName: globalStepName,
	}
	push := g.BuildOp("PushGradients", "lonely/push", spec.Attrs(), round, g.Const([]float32{1, 2}))
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err = sess.Run(map[tf.Output]*tf.Tensor{round: tf.FromInt64s(tf.Shape{}, []int64{0})}, []tf.Output{push.Output(0)})
	if err == nil || !strings.Contains(err.Error(), "lonely/push") {
		t.Fatalf("running a push in a local session returned %v; want an error naming lonely/push", err)
	}
}

// TestCloseEndsBlockedPush: closing the trainer while one replica's push
// waits on a round the other replica never joins ends that step — on the
// worker task too — and leaves none of the push kernel's per-shard
// goroutines, the step, or the shard's push waiter behind.
func TestCloseEndsBlockedPush(t *testing.T) {
	spec := distributed.ClusterSpec{"ps": make([]string, 2), "worker": make([]string, 2)}
	r, err := NewReplicated(ReplicatedOptions{
		Cluster: spec, Resolver: distributed.NewInProcCluster(spec).Resolver(),
		Optimizer: &GradientDescent{LearningRate: 0.1}, Sync: true,
	}, repModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	// One full round first, so the blocked step below is not the first.
	done := make(chan error, 2)
	for wi := 0; wi < 2; wi++ {
		go func() {
			_, err := r.TrainStep(wi, repFeeds(int64(wi)))
			done <- err
		}()
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	go func() {
		_, err := r.TrainStep(0, repFeeds(7))
		done <- err
	}()
	blocked := []string{"distributed.pushKernel", "distributed.(*Aggregator).push"}
	for deadline := time.Now().Add(5 * time.Second); !stacksHold(blocked...); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replica 0's push never reached the shard's barrier")
		}
	}
	r.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a step blocked on an incomplete round returned no error after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not end the step blocked in its push")
	}
	// The step's goroutines get 5 s to unwind, watched on their stacks: a
	// count of goroutines taken after the first round can include that
	// round's own, still returning.
	for _, fn := range append(blocked, "distributed.(*Master).runOnce", "distributed.(*Worker).RunGraph") {
		for deadline := time.Now().Add(5 * time.Second); stacksHold(fn); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s still running 5 s after Close:\n%s", fn, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// stacksHold reports whether some goroutine's stack holds every one of fns.
func stacksHold(fns ...string) bool {
	buf := make([]byte, 1<<20)
	for _, stack := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		all := true
		for _, fn := range fns {
			all = all && strings.Contains(stack, fn)
		}
		if all {
			return true
		}
	}
	return false
}
