package distributed_test

// Integration battery for PR 8: elastic membership end-to-end (kill one
// worker and one PS mid-training, admit replacements at new addresses,
// match the uninterrupted baseline), and the chaos suite (seeded
// drop/delay/dup schedules over real training, one-way partitions against
// the sync barrier). Run `make chaos` to execute this suite under -race
// with the pinned CHAOS_SEED.

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

// TestElasticMembershipTraining is the PR 8 acceptance scenario: a dynamic
// TCP cluster of 2 workers + 2 PS loses one of each mid-training (silent
// kills — the heartbeat detector must notice), trains on at reduced
// strength with the PS shard migrated onto the survivor, then admits
// replacement tasks at NEW addresses that inherit the vacated slots. The
// loss trajectory must match an uninterrupted fixed-cluster baseline
// step for step, and checkpoint step numbers must prove the shard state
// moved without losing an applied update.
func TestElasticMembershipTraining(t *testing.T) { elasticMembership(t, 44) }

// TestElasticRestoreSkipsStaleShardCopy runs the membership scenario on to a
// fifth phase. Since phase 2, ps0's device still holds the copy of b it
// absorbed, though b lives on ps1 again. Both shards checkpoint at step 44,
// the replacement ps1 dies silently, and the migration must restore b from
// ps1's file, not the stale copy: a task's checkpoint holds only the
// variables the trainer places on it, so the tie at equal steps cannot pick
// the wrong one.
func TestElasticRestoreSkipsStaleShardCopy(t *testing.T) { elasticMembership(t, 52) }

// elasticMembership trains the membership scenario for steps steps: phases
// 1-4 take 44, and a longer run adds phase 5.
func elasticMembership(t *testing.T, steps int) {
	const (
		killAt    = 21 // steps completed when the kill lands
		rejoinAt  = 25 // steps completed when replacements join
		fullAt    = 44 // steps completed when phase 4 ends
		tolerance = 1e-6
	)
	want := baselineLosses(t, steps)

	prefix := filepath.Join(t.TempDir(), "ckpt")
	spec := distributed.ClusterSpec{
		"ps":     {reserveAddr(t), reserveAddr(t)},
		"worker": make([]string, 2),
	}
	var cluster *distributed.DynamicCluster
	dynResolver := func(task string) (distributed.Transport, error) { return cluster.Resolver()(task) }

	pss := map[string]*distributed.PS{}
	for i := range spec["ps"] {
		ps, err := distributed.NewPS(spec, "ps", i, dynResolver, distributed.PSOptions{CheckpointPrefix: prefix})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		pss[ps.Worker.Task()] = ps
	}
	servers := map[string]*distributed.Server{}
	for i := range spec["worker"] {
		w := distributed.NewWorker("worker", i, dynResolver)
		srv, err := distributed.Serve(w, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[w.Task()] = srv
		spec["worker"][i] = srv.Addr()
	}
	cluster = distributed.NewDynamicCluster(spec)

	e, err := train.NewElastic(train.ElasticOptions{
		Cluster: cluster,
		Replicated: train.ReplicatedOptions{
			Optimizer:        &train.GradientDescent{LearningRate: 0.1},
			CheckpointPrefix: prefix,
			CheckpointEvery:  1000, // only explicit and migration saves
			StepRetries:      5,
		},
		Heartbeat:   distributed.FailureDetectorOptions{Interval: 10 * time.Millisecond, Timeout: 80 * time.Millisecond},
		RebuildWait: 20 * time.Second,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	got := make([]float64, steps)
	step := func(s int) {
		loss, err := e.TrainStep(s%2, krFeeds(int64(s)))
		if err != nil {
			t.Fatalf("elastic step %d: %v", s, err)
		}
		got[s] = loss
	}

	// Phase 1: full-strength training, then pin a checkpoint.
	for s := 0; s < killAt; s++ {
		step(s)
	}
	if err := e.SaveNow(); err != nil {
		t.Fatal(err)
	}

	// Kill one worker and one PS — silently. No Leave call: the heartbeat
	// failure detector has to turn the silence into membership changes.
	if err := servers[distributed.TaskName("worker", 1)].Close(); err != nil {
		t.Fatal(err)
	}
	if err := pss[distributed.TaskName("ps", 1)].Close(); err != nil {
		t.Fatal(err)
	}
	killedAt := time.Now()
	evicted := func() bool {
		return len(cluster.LiveTasks("worker")) == 1 && len(cluster.LiveTasks("ps")) == 1
	}
	for deadline := time.Now().Add(10 * time.Second); !evicted(); {
		if time.Now().After(deadline) {
			t.Fatalf("failure detector never evicted the killed tasks; live: %v", cluster.Tasks())
		}
		time.Sleep(5 * time.Millisecond)
	}
	detection := time.Since(killedAt)

	// Phase 2: reduced-strength training. The first step rebuilds; ps task
	// 1's shard must have migrated to the survivor via the step-21 checkpoint.
	rebuildStart := time.Now()
	step(killAt)
	t.Logf("recovery after silent kill: detection %v, rebuild+migrate+first step %v",
		detection, time.Since(rebuildStart))
	for s := killAt + 1; s < rejoinAt; s++ {
		step(s)
	}
	if rs := e.RestoredStep(); rs != killAt {
		t.Errorf("shard migration restored step %d, want %d (the pinned checkpoint)", rs, killAt)
	}

	// Phase 3: replacements at NEW addresses inherit the vacated slots.
	newPSAddr := reserveAddr(t)
	snap := cluster.Snapshot()
	snap["ps"][1] = newPSAddr
	ps2, err := distributed.NewPS(snap, "ps", 1, dynResolver, distributed.PSOptions{CheckpointPrefix: prefix})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps2.Close() })
	// Slot continuity: the replacement restored slot 1's newest checkpoint.
	if ps2.RestoredStep != killAt {
		t.Errorf("replacement PS restored step %d, want %d", ps2.RestoredStep, killAt)
	}
	if idx, err := cluster.Join("ps", newPSAddr); err != nil || idx != 1 {
		t.Fatalf("ps Join = %d, %v; want the vacated slot 1", idx, err)
	}
	w2 := distributed.NewWorker("worker", 1, dynResolver)
	srv2, err := distributed.Serve(w2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	if srv2.Addr() == spec["worker"][1] {
		t.Fatal("replacement worker reused the old address; the test needs a new one")
	}
	if idx, err := cluster.Join("worker", srv2.Addr()); err != nil || idx != 1 {
		t.Fatalf("worker Join = %d, %v; want the vacated slot 1", idx, err)
	}

	// Phase 4: full strength again; the rebuild re-shards variables back
	// across both PS tasks, migrating state forward (not the stale slot-1
	// checkpoint) via the survivor's step-25 save.
	scaleUpStart := time.Now()
	step(rejoinAt)
	t.Logf("scale-up after rejoin: rebuild+re-shard+first step %v", time.Since(scaleUpStart))
	for s := rejoinAt + 1; s < fullAt; s++ {
		step(s)
	}
	if rs := e.RestoredStep(); rs != rejoinAt {
		t.Errorf("re-shard migration restored step %d, want %d (no applied update lost)", rs, rejoinAt)
	}

	// Phase 5: pin a checkpoint, silently kill the replacement PS and train
	// on one shard again, migrated from the step-44 files.
	if steps > fullAt {
		if err := e.SaveNow(); err != nil {
			t.Fatal(err)
		}
		if err := ps2.Close(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); len(cluster.LiveTasks("ps")) != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("failure detector never evicted the replacement PS; live: %v", cluster.Tasks())
			}
			time.Sleep(5 * time.Millisecond)
		}
		for s := fullAt; s < steps; s++ {
			step(s)
		}
		if rs := e.RestoredStep(); rs != fullAt {
			t.Errorf("second migration restored step %d, want %d", rs, fullAt)
		}
	}

	if gs, err := e.GlobalStep(); err != nil || gs != int64(steps) {
		t.Errorf("global step = %d, %v; want %d (every scheduled step applied exactly once)", gs, err, steps)
	}
	for s := range want {
		if diff := math.Abs(got[s] - want[s]); diff > tolerance*math.Max(1, math.Abs(want[s])) {
			t.Errorf("step %d loss %.9f diverged from baseline %.9f", s, got[s], want[s])
		}
	}
	if want[steps-1] > 0.05 {
		t.Errorf("baseline did not converge (loss %.4f); the comparison is vacuous", want[steps-1])
	}
	if gen := e.Generation(); gen < 3 {
		t.Errorf("generation = %d; the run should have rebuilt at least twice", gen)
	}
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
