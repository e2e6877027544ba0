package distributed_test

// Integration battery: PS-side optimizer application (gradients
// pushed to the owning shard, applied where the variable lives) driven
// through the chaos transport and a PS restart. These live here so
// `make chaos` and the CI race gate on internal/distributed exercise the
// push/aggregate path on every pass.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/distributed"
	"repro/tf"
	"repro/tf/train"
)

// driveSyncRounds runs `rounds` synchronous rounds with both workers
// participating concurrently, returning per-worker per-round losses. Feeds
// are deterministic per (worker, round) so two runs of the same schedule
// are comparable step for step.
func driveSyncRounds(t *testing.T, step func(wi int, s int) (float64, error), workers, rounds int) [][]float64 {
	t.Helper()
	losses := make([][]float64, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		losses[wi] = make([]float64, rounds)
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				loss, err := step(wi, s)
				if err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", wi, s, err)
					return
				}
				losses[wi][s] = loss
			}
		}(wi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return losses
}

func momentum() train.Optimizer { return &train.Momentum{LearningRate: 0.02, Decay: 0.9} }

// syncPSApplyBaseline is the fault-free fixed-cluster reference: 2 PS + 2
// workers, synchronous training with shard-side apply.
func syncPSApplyBaseline(t *testing.T, opt train.Optimizer, rounds int) [][]float64 {
	t.Helper()
	spec := distributed.ClusterSpec{"ps": make([]string, 2), "worker": make([]string, 2)}
	cluster := distributed.NewInProcCluster(spec)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: cluster.Resolver(),
		Optimizer: opt,
		Sync:      true,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	return driveSyncRounds(t, func(wi, s int) (float64, error) {
		return r.TrainStep(wi, krFeeds(int64(wi*1000+s)))
	}, 2, rounds)
}

// TestChaosSyncPSApplyMatchesFaultFree: a seeded schedule of dropped,
// delayed and duplicated RPCs — the client's, and the tasks' own
// RecvTensor and PushGradients calls — over a TCP cluster must reproduce
// the fault-free loss trajectory exactly. Dropped pushes are re-sent,
// duplicated pushes hit the (origin, round) dedup, and the round barrier
// keeps every worker on the same parameter version, so the optimizer state
// on the shards advances once per round no matter how the network
// misbehaves.
func TestChaosSyncPSApplyMatchesFaultFree(t *testing.T) {
	seed := chaosSeed(t)
	const (
		rounds    = 14
		tolerance = 1e-6
	)
	want := syncPSApplyBaseline(t, momentum(), rounds)

	plan, err := distributed.NewChaosPlan(distributed.ChaosConfig{
		Seed: seed, Drop: 0.04, Delay: 0.08, Dup: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	logSeedOnFailure(t, seed, plan)
	spec, resolver, _, _ := krClusterVia(t, 2, 2, "", plan.WrapResolver)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: plan.WrapResolver(resolver),
		Optimizer:   momentum(),
		Sync:        true,
		StepRetries: 8,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	got := driveSyncRounds(t, func(wi, s int) (float64, error) {
		return r.TrainStep(wi, krFeeds(int64(wi*1000+s)))
	}, 2, rounds)

	for wi := range want {
		for s := range want[wi] {
			if diff := math.Abs(got[wi][s] - want[wi][s]); diff > tolerance*math.Max(1, math.Abs(want[wi][s])) {
				t.Errorf("worker %d round %d: chaos loss %.9f diverged from fault-free %.9f",
					wi, s, got[wi][s], want[wi][s])
			}
		}
	}
	if step, err := r.GlobalStep(); err != nil || step != rounds {
		t.Errorf("global step = %d, %v; want %d (chaos must not lose or double-apply a round)", step, err, rounds)
	}
	if plan.Faults() == 0 {
		t.Error("chaos plan injected nothing; the run proved nothing")
	}
	faultedPushes := 0
	for _, rec := range plan.Log() {
		if rec.Method == "PushGradients" && rec.Kind != distributed.FaultNone {
			faultedPushes++
		}
	}
	if faultedPushes == 0 {
		t.Error("no PushGradients call was dropped, delayed or duplicated; the pushes went unfaulted")
	}
}

// TestPSRestartRestoresOptimizerSlots: with optimizer state living on the
// PS shards, a restarted PS task must restore the slots beside its
// parameters (§4.3). PS task 1 is killed after a pinned checkpoint and
// started again at the same address; its shard file carries the momentum
// velocities, or Adam's moments and its scalar per-variable timestep, so the
// loss trajectory stays step for step on the uninterrupted baseline, which
// it cannot do if the slots restart from their initial fill.
func TestPSRestartRestoresOptimizerSlots(t *testing.T) {
	t.Run("momentum", func(t *testing.T) {
		psRestartRestoresSlots(t, momentum, "b/momentum")
	})
	t.Run("adam", func(t *testing.T) {
		psRestartRestoresSlots(t, func() train.Optimizer { return &train.Adam{LearningRate: 0.05} },
			"b/adam_m", "b/adam_v", "b/adam_t")
	})
}

func psRestartRestoresSlots(t *testing.T, opt func() train.Optimizer, slots ...string) {
	const (
		preRounds  = 10
		postRounds = 6
		tolerance  = 1e-6
	)
	want := syncPSApplyBaseline(t, opt(), preRounds+postRounds)

	prefix := filepath.Join(t.TempDir(), "ckpt")
	spec, resolver, pss, _ := krCluster(t, 2, 2, prefix)
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: resolver,
		Optimizer:        opt(),
		Sync:             true,
		CheckpointPrefix: prefix,
		CheckpointEvery:  1000, // only the explicit save
		StepRetries:      5,
	}, krModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	rounds := func(from, n int) [][]float64 {
		return driveSyncRounds(t, func(wi, s int) (float64, error) {
			return r.TrainStep(wi, krFeeds(int64(wi*1000+from+s)))
		}, 2, n)
	}

	// Slot state builds on both shards; then pin a checkpoint at the round
	// boundary and restart PS task 1, which owns b and its slots.
	got := rounds(0, preRounds)
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
	task := distributed.TaskName("ps", 1)
	if err := pss[task].Close(); err != nil {
		t.Fatal(err)
	}
	ps, err := distributed.NewPS(spec, "ps", 1, func(task string) (distributed.Transport, error) {
		return resolver(task)
	}, distributed.PSOptions{CheckpointPrefix: prefix})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	if ps.RestoredStep != preRounds {
		t.Errorf("restarted PS restored step %d, want %d (the pinned checkpoint)", ps.RestoredStep, preRounds)
	}
	// Direct evidence: the restored shard holds every slot, with trained
	// (nonzero) state.
	snap := ps.Worker.Device().Resources().SnapshotVariables()
	for _, name := range slots {
		v := snap[name]
		if v == nil {
			t.Errorf("slot %q missing from the restarted shard", name)
			continue
		}
		nonzero := false
		for i := 0; i < v.NumElements(); i++ {
			if v.FloatAt(i) != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Errorf("slot %q restored as all zeros; optimizer state was lost", name)
		}
	}

	post := rounds(preRounds, postRounds)
	for wi := range got {
		got[wi] = append(got[wi], post[wi]...)
	}
	for wi := range want {
		for s := range want[wi] {
			if diff := math.Abs(got[wi][s] - want[wi][s]); diff > tolerance*math.Max(1, math.Abs(want[wi][s])) {
				t.Errorf("worker %d round %d: loss %.9f diverged from baseline %.9f — optimizer slots lost in the restart?",
					wi, s, got[wi][s], want[wi][s])
			}
		}
	}
	if gs, err := r.GlobalStep(); err != nil || gs != preRounds+postRounds {
		t.Errorf("global step = %d, %v; want %d", gs, err, preRounds+postRounds)
	}
}

// TestSyncRoundAllocatedBytesTCP pins what a steady-state sync round of a
// TCP cluster allocates, every task and the client together. A gradient is
// computed into a buffer its worker recycled from the previous step, and
// decoded on its shard into a buffer the shard's aggregator kept; each
// worker decodes the parameter it reads into a buffer its step recycled
// (Recv). What is left is the Momentum rule writing the new parameter: about
// once the weight's bytes a round, not the three of a round whose workers
// decoded each parameter into new memory, nor the seven of one that also
// allocated each gradient twice.
func TestSyncRoundAllocatedBytesTCP(t *testing.T) {
	const (
		in, out       = 512, 128
		batch         = 4
		warm, rounds  = 20, 50
		boundPerRound = 1.5 // × the weight's bytes
	)
	model := func(rb *train.ReplicaGraph) (*train.Model, error) {
		x := rb.Placeholder("x", tf.Float32, tf.Shape{batch, in})
		y := rb.Placeholder("y", tf.Float32, tf.Shape{batch, out})
		w := rb.Variable("w", tf.NewTensor(tf.Float32, tf.Shape{in, out}))
		loss := rb.Mean(rb.Square(rb.Sub(rb.MatMul(x, w.Value()), y)), nil, false)
		return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}, nil
	}
	rng := tf.NewRNG(1)
	feeds := map[string]*tf.Tensor{
		"x": rng.Uniform(tf.Float32, tf.Shape{batch, in}, -1, 1),
		"y": rng.Uniform(tf.Float32, tf.Shape{batch, out}, -1, 1),
	}
	spec, resolver, _, _ := krCluster(t, 2, 2, "")
	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: resolver, Optimizer: momentum(), Sync: true,
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	step := func(wi, _ int) (float64, error) { return r.TrainStep(wi, feeds) }
	driveSyncRounds(t, step, 2, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	driveSyncRounds(t, step, 2, rounds)
	runtime.ReadMemStats(&after)
	weight := float64(in * out * 4)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds / weight
	t.Logf("a sync round allocates %.2f× the weight's %.0f bytes", perRound, weight)
	if raceEnabled {
		return // the rounds ran for the detector; the count is sync.Pool's
	}
	if perRound > boundPerRound {
		t.Errorf("a sync round allocates %.2f× the weight's bytes, want ≤ %g×", perRound, boundPerRound)
	}
}
