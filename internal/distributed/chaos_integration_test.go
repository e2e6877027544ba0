package distributed_test

// Integration battery for the chaos suite: seeded drop/delay/dup schedules
// over real training, one-way partitions against the sync barrier. Run
// `make chaos` to execute this suite under -race with the pinned
// CHAOS_SEED.

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/tf/train"
)

// chaosSeed returns the seed for chaos schedules: CHAOS_SEED from the
// environment (what `make chaos` pins), or a fixed default. Failing tests
// log it so any run can be replayed exactly.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q is not an integer: %v", s, err)
		}
		return n
	}
	return 20260808
}

// logSeedOnFailure makes every chaos failure replayable.
func logSeedOnFailure(t *testing.T, seed int64, plan *distributed.ChaosPlan) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("chaos seed %d injected %d faults over %d RPCs — rerun with CHAOS_SEED=%d",
				seed, plan.Faults(), len(plan.Log()), seed)
		}
	})
}

// baselineLosses runs the uninterrupted fixed-cluster reference schedule on
// an in-process cluster and returns the per-step losses.
func baselineLosses(t *testing.T, steps int) []float64 {
	t.Helper()
	spec := distributed.ClusterSpec{"ps": make([]string, 2), "worker": make([]string, 2)}
	cluster := distributed.NewInProcCluster(spec)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: cluster.Resolver(),
		Optimizer: &train.GradientDescent{LearningRate: 0.1},
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, steps)
	for s := 0; s < steps; s++ {
		loss, err := r.TrainStep(s%2, krFeeds(int64(s)))
		if err != nil {
			t.Fatalf("baseline step %d: %v", s, err)
		}
		losses[s] = loss
	}
	return losses
}

// TestSyncPartitionUsesBackupWorkers: a one-way partition between the
// client and one replica's worker must be absorbed by the backup-worker
// path (§4.4, Figure 4c) — rounds keep completing at m of n, the
// partitioned replica's steps fail cleanly, and nothing hangs in the
// barrier.
func TestSyncPartitionUsesBackupWorkers(t *testing.T) {
	seed := chaosSeed(t)
	spec, resolver, _, _ := krCluster(t, 1, 3, "")
	plan, err := distributed.NewChaosPlan(distributed.ChaosConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	logSeedOnFailure(t, seed, plan)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: plan.WrapResolver(resolver),
		Optimizer:   &train.GradientDescent{LearningRate: 0.1},
		Sync:        true,
		Backups:     1,
		StepRetries: 2,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	plan.PartitionTo(distributed.TaskName("worker", 2))

	const rounds = 5
	done := make(chan struct{})
	var partitionedErr error
	go func() {
		defer close(done)
		errCh := make(chan error, 2)
		for wi := 0; wi < 2; wi++ {
			go func(wi int) {
				for s := 0; s < rounds; s++ {
					if _, err := r.TrainStep(wi, krFeeds(int64(wi*100+s))); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}(wi)
		}
		// The partitioned replica: every step must fail (its worker is
		// unreachable) without wedging the others' barrier.
		_, partitionedErr = r.TrainStep(2, krFeeds(int64(999)))
		for i := 0; i < 2; i++ {
			if err := <-errCh; err != nil {
				t.Errorf("healthy replica failed: %v", err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("synchronous rounds hung behind the partitioned replica — backup-worker path not taken")
	}
	if partitionedErr == nil {
		t.Error("step through a partitioned worker should fail")
	}
	if step, err := r.GlobalStep(); err != nil || step < rounds {
		t.Errorf("global step = %d, %v; want ≥ %d rounds despite the partition", step, err, rounds)
	}
}

// TestChaosKillAndRecoverTraining is the §4.3 kill-and-recover scenario
// under a seeded chaos schedule of drops, delays, and duplicates (err
// faults are excluded: losing a response after execution breaks the
// exactly-once retry contract checkpointing relies on). Masters retry
// through the noise, workers reject duplicate deliveries, and the final
// loss still lands on the uninterrupted baseline.
func TestChaosKillAndRecoverTraining(t *testing.T) {
	seed := chaosSeed(t)
	want := baselineLosses(t, krSteps)
	wantLoss := want[krSteps-1]

	prefix := filepath.Join(t.TempDir(), "ckpt")
	spec, resolver, pss, servers := krCluster(t, 2, 2, prefix)
	plan, err := distributed.NewChaosPlan(distributed.ChaosConfig{
		Seed: seed, Drop: 0.04, Delay: 0.08, Dup: 0.04,
	})
	if err != nil {
		t.Fatal(err)
	}
	logSeedOnFailure(t, seed, plan)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: plan.WrapResolver(resolver),
		Optimizer:        &train.GradientDescent{LearningRate: 0.1},
		CheckpointPrefix: prefix,
		CheckpointEvery:  5,
		StepRetries:      8,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}

	hooks := map[int]func(){
		13: func() { // worker restart at the same address, mid-chaos
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
		21: func() { // checkpoint, then PS restart restoring the shard
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
			if ps2.RestoredStep != 21 {
				t.Errorf("restarted PS restored step %d, want 21", ps2.RestoredStep)
			}
		},
	}
	gotLoss := runSchedule(t, r, 0, krSteps, hooks)

	if step, err := r.GlobalStep(); err != nil || step != krSteps {
		t.Errorf("global step = %d, %v; want %d (chaos must not lose or double-count steps)", step, err, krSteps)
	}
	if math.Abs(gotLoss-wantLoss) > 0.05*math.Max(math.Abs(wantLoss), 0.01) {
		t.Errorf("chaos run final loss %.6f, baseline %.6f", gotLoss, wantLoss)
	}
	if plan.Faults() == 0 {
		t.Error("chaos plan injected nothing; the run proved nothing")
	}
	if err := r.SaveErr(); err != nil {
		t.Errorf("background checkpointing failed under chaos: %v", err)
	}
}

// TestChaosDuplicateHeavyTraining turns duplicate delivery up to a third
// of all RPCs: the worker's step-ID dedup must keep re-delivered RunGraphs
// from double-applying gradients, and re-delivered calls of a shard's Save
// step must leave checkpoints intact and restorable.
func TestChaosDuplicateHeavyTraining(t *testing.T) {
	seed := chaosSeed(t)
	const steps = 24
	want := baselineLosses(t, steps)

	prefix := filepath.Join(t.TempDir(), "ckpt")
	spec, resolver, _, _ := krCluster(t, 2, 2, prefix)
	plan, err := distributed.NewChaosPlan(distributed.ChaosConfig{Seed: seed, Dup: 0.33})
	if err != nil {
		t.Fatal(err)
	}
	logSeedOnFailure(t, seed, plan)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: plan.WrapResolver(resolver),
		Optimizer:        &train.GradientDescent{LearningRate: 0.1},
		CheckpointPrefix: prefix,
		CheckpointEvery:  4,
		StepRetries:      5,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		loss, err := r.TrainStep(s%2, krFeeds(int64(s)))
		if err != nil {
			t.Fatalf("step %d under duplicates: %v", s, err)
		}
		if diff := math.Abs(loss - want[s]); diff > 1e-6*math.Max(1, math.Abs(want[s])) {
			t.Errorf("step %d loss %.9f diverged from baseline %.9f — a duplicate was applied", s, loss, want[s])
		}
	}
	if step, err := r.GlobalStep(); err != nil || step != steps {
		t.Errorf("global step = %d, %v; want %d", step, err, steps)
	}
	// Checkpoints written through duplicated Save steps must restore clean.
	for i := 0; i < 2; i++ {
		shard := prefix + ".ps-" + strconv.Itoa(i)
		path, _, err := checkpoint.LatestStep(shard)
		if err != nil || path == "" {
			t.Fatalf("no checkpoint for shard %d after duplicated saves: %v", i, err)
		}
		if _, err := checkpoint.Read(path); err != nil {
			t.Errorf("shard %d checkpoint corrupted by duplicated saves: %v", i, err)
		}
	}
	if err := r.SaveErr(); err != nil {
		t.Errorf("checkpointing failed under duplicates: %v", err)
	}
}

// TestChaosEndToEndReproducible: for a serial RPC sequence (single-task
// steps dispatch one partition at a time), a fixed seed reproduces the
// exact fault schedule across runs against fresh clusters. Concurrent
// multi-partition steps draw from the same deterministic decision stream,
// but which RPC lands on which decision then depends on goroutine timing —
// so the serial case is what pins the schedule end to end.
func TestChaosEndToEndReproducible(t *testing.T) {
	seed := chaosSeed(t)
	run := func() []distributed.FaultRecord {
		_, resolver, _, _ := krCluster(t, 0, 1, "")
		plan, err := distributed.NewChaosPlan(distributed.ChaosConfig{
			Seed: seed, Drop: 0.1, Delay: 0.2, Dup: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New()
		c, err := g.AddNode("Const", nil, graph.NodeArgs{
			Name:   "c",
			Attrs:  map[string]any{"value": tensor.Scalar(7)},
			Device: distributed.TaskName("worker", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := distributed.NewMaster(g, distributed.ClusterSpec{"worker": {""}},
			plan.WrapResolver(resolver), distributed.MasterOptions{StepRetries: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := m.Run(nil, []graph.Endpoint{c.Out(0)}, nil, nil); err != nil {
				t.Fatalf("serial step %d: %v", i, err)
			}
		}
		return plan.Log()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d RPC decisions", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Method != b[i].Method || a[i].Task != b[i].Task {
			t.Fatalf("decision %d diverged: %+v vs %+v — schedule is not reproducible", i, a[i], b[i])
		}
	}
}
