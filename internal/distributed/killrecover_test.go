// Package distributed_test holds the fault-tolerance integration tests
// that drive the full stack — tf/train's replication layer over the TCP
// transport — against task failures (§4.3, §4.4). They live here so the CI
// race gate on internal/distributed runs them on every pass.
package distributed_test

import (
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/distributed"
	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
)

const (
	krFeatures = 2
	krBatch    = 8
	krSteps    = 44
)

var krWTrue = []float32{1.5, -2}

func krModel(rb *train.ReplicaGraph) (*train.Model, error) {
	x := rb.Placeholder("x", tf.Float32, tf.Shape{krBatch, krFeatures})
	y := rb.Placeholder("y", tf.Float32, tf.Shape{krBatch, krFeatures - 1})
	w := rb.Variable("w", tf.NewTensor(tf.Float32, tf.Shape{krFeatures, 1}))
	b := rb.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{1}))
	pred := rb.Add(rb.MatMul(x, w.Value()), b.Value())
	loss := rb.Mean(rb.Square(rb.Sub(pred, y)), nil, false)
	return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}, nil
}

func krFeeds(seed int64) map[string]*tf.Tensor {
	xs, ys := nn.LinearData(seed, krBatch, krFeatures, krWTrue, 0.5, 0.01)
	return map[string]*tf.Tensor{"x": xs, "y": ys}
}

// reserveAddr grabs a free loopback port for a task that will be served
// (and possibly restarted) at a fixed address.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// krCluster starts a TCP cluster of psTasks PS tasks (checkpointing under
// prefix) and workerTasks stateless workers.
func krCluster(t *testing.T, psTasks, workerTasks int, prefix string) (
	distributed.ClusterSpec, distributed.Resolver, map[string]*distributed.PS, map[string]*distributed.Server) {
	t.Helper()
	return krClusterVia(t, psTasks, workerTasks, prefix, nil)
}

// krClusterVia is krCluster with every task's own resolver — the one its
// RecvTensor and PushGradients calls go through — wrapped by wrap (nil:
// none).
func krClusterVia(t *testing.T, psTasks, workerTasks int, prefix string, wrap func(distributed.Resolver) distributed.Resolver) (
	distributed.ClusterSpec, distributed.Resolver, map[string]*distributed.PS, map[string]*distributed.Server) {
	t.Helper()
	spec := distributed.ClusterSpec{
		"ps":     make([]string, psTasks),
		"worker": make([]string, workerTasks),
	}
	for i := range spec["ps"] {
		spec["ps"][i] = reserveAddr(t)
	}
	var resolver distributed.Resolver
	var indirect distributed.Resolver = func(task string) (distributed.Transport, error) { return resolver(task) }
	if wrap != nil {
		indirect = wrap(indirect)
	}

	pss := map[string]*distributed.PS{}
	for i := range spec["ps"] {
		ps, err := distributed.NewPS(spec, "ps", i, indirect, distributed.PSOptions{CheckpointPrefix: prefix})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		pss[ps.Worker.Task()] = ps
	}
	servers := map[string]*distributed.Server{}
	for i := range spec["worker"] {
		w := distributed.NewWorker("worker", i, indirect)
		srv, err := distributed.Serve(w, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[w.Task()] = srv
		spec["worker"][i] = srv.Addr()
	}
	resolver = distributed.TCPResolver(spec)
	return spec, resolver, pss, servers
}

// runSchedule drives the deterministic training schedule: steps alternate
// between the two workers, with hooks fired before given step indices.
func runSchedule(t *testing.T, r *train.Replicated, from, to int, hooks map[int]func()) float64 {
	t.Helper()
	var last float64
	for s := from; s < to; s++ {
		if hook, ok := hooks[s]; ok {
			hook()
		}
		loss, err := r.TrainStep(s%2, krFeeds(int64(s)))
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		last = loss
	}
	return last
}

// TestKillAndRecoverTraining is the §4.3 end-to-end scenario: a TCP-cluster
// training run checkpoints its PS shards as it goes, survives a worker
// restart (the master retries the step against re-registered subgraphs) and
// a PS restart (the new task restores its shard from the latest checkpoint),
// and still reaches the loss of an uninterrupted run.
func TestKillAndRecoverTraining(t *testing.T) {
	// Uninterrupted baseline on an in-process cluster: same model, same
	// deterministic schedule.
	baseSpec := distributed.ClusterSpec{"ps": make([]string, 2), "worker": make([]string, 2)}
	baseCluster := distributed.NewInProcCluster(baseSpec)
	baseline, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: baseSpec, Resolver: baseCluster.Resolver(),
		Optimizer: &train.GradientDescent{LearningRate: 0.1},
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	if _, err := baseline.Init(); err != nil {
		t.Fatal(err)
	}
	wantLoss := runSchedule(t, baseline, 0, krSteps, nil)

	// The fault-injected run over real TCP.
	prefix := filepath.Join(t.TempDir(), "ckpt")
	spec, resolver, pss, servers := krCluster(t, 2, 2, prefix)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: resolver,
		Optimizer:        &train.GradientDescent{LearningRate: 0.1},
		CheckpointPrefix: prefix,
		CheckpointEvery:  5,
		StepRetries:      5,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if step, err := r.Init(); err != nil || step != 0 {
		t.Fatalf("Init = %d, %v", step, err)
	}

	hooks := map[int]func(){
		// Before step 13: kill worker task 1 and restart it at the same
		// address. Its registered subgraphs are gone; the replica's master
		// must retry, redial, and re-register.
		13: func() {
			task := distributed.TaskName("worker", 1)
			addr := servers[task].Addr()
			if err := servers[task].Close(); err != nil {
				t.Fatal(err)
			}
			w := distributed.NewWorker("worker", 1, func(task string) (distributed.Transport, error) {
				return resolver(task)
			})
			srv, err := distributed.Serve(w, addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
		},
		// Before step 21: checkpoint at the exact step boundary, then kill
		// PS task 0 (which owns w and the global step) and bring up a
		// fresh PS that restores the shard from the newest checkpoint. No
		// updates are lost, so the trajectory stays on the baseline's.
		21: func() {
			if err := r.SaveNow(); err != nil {
				t.Fatal(err)
			}
			task := distributed.TaskName("ps", 0)
			if err := pss[task].Close(); err != nil {
				t.Fatal(err)
			}
			ps2, err := distributed.NewPS(spec, "ps", 0, func(task string) (distributed.Transport, error) {
				return resolver(task)
			}, distributed.PSOptions{CheckpointPrefix: prefix})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ps2.Close() })
			// 21 steps have completed when this hook fires, and SaveNow
			// pinned a checkpoint at exactly that boundary.
			if ps2.RestoredStep != 21 {
				t.Errorf("restarted PS restored step %d, want 21", ps2.RestoredStep)
			}
		},
	}
	gotLoss := runSchedule(t, r, 0, krSteps, hooks)

	if step, err := r.GlobalStep(); err != nil || step != krSteps {
		t.Errorf("global step = %d, %v; want %d (no steps lost to the failures)", step, err, krSteps)
	}
	if math.Abs(gotLoss-wantLoss) > 0.05*math.Max(math.Abs(wantLoss), 0.01) {
		t.Errorf("fault-injected run final loss %.6f, uninterrupted baseline %.6f", gotLoss, wantLoss)
	}
	if wantLoss > 0.05 {
		t.Errorf("baseline did not converge (loss %.4f); the comparison is vacuous", wantLoss)
	}
	if err := r.SaveErr(); err != nil {
		t.Errorf("background checkpointing failed: %v", err)
	}
}

// TestSyncStragglerOverTCP checks the m-of-n property (§4.4, Figure 4c) on
// the real transport: with one backup worker, synchronous rounds complete
// while one replica is stalled.
func TestSyncStragglerOverTCP(t *testing.T) {
	spec, resolver, _, _ := krCluster(t, 1, 3, "")
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: resolver,
		Optimizer: &train.GradientDescent{LearningRate: 0.1},
		Sync:      true,
		Backups:   1,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}

	const rounds = 6
	stallDone := make(chan struct{})
	go func() { // replica 2 never contributes in time
		<-stallDone
	}()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				if _, err := r.TrainStep(wi, krFeeds(int64(wi*100+s))); err != nil {
					errCh <- err
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	close(stallDone)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if step, err := r.GlobalStep(); err != nil || step != rounds {
		t.Errorf("global step = %d, %v; want %d despite the stalled replica", step, err, rounds)
	}
	t.Logf("%d m-of-n rounds over TCP in %v with one replica stalled", rounds, time.Since(start))
}
