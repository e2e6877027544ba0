package distributed_test

// Integration battery: PS-side optimizer application (gradients
// pushed to the owning shard, applied where the variable lives) driven
// through the chaos transport and elastic membership. These live here so
// `make chaos` and the CI race gate on internal/distributed exercise the
// push/aggregate path on every pass.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

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

// TestElasticRebuildRestoresOptimizerSlots: with optimizer state living on
// the PS shards, a membership change that re-shards the variables must
// migrate the slot state too. One PS dies silently mid-training; the
// rebuild merges shard checkpoints — momentum velocities, or Adam's moments
// and its scalar per-variable timestep, included — onto the survivor, and the
// loss trajectory stays step-for-step on the uninterrupted baseline, which it
// cannot do if the slots restart from their initial fill.
func TestElasticRebuildRestoresOptimizerSlots(t *testing.T) {
	t.Run("momentum", func(t *testing.T) {
		elasticRebuildRestoresSlots(t, momentum, "w/momentum", "b/momentum")
	})
	t.Run("adam", func(t *testing.T) {
		elasticRebuildRestoresSlots(t, func() train.Optimizer { return &train.Adam{LearningRate: 0.05} },
			"w/adam_m", "w/adam_v", "w/adam_t", "b/adam_m", "b/adam_v", "b/adam_t")
	})
}

func elasticRebuildRestoresSlots(t *testing.T, opt func() train.Optimizer, slots ...string) {
	const (
		preRounds  = 10
		postRounds = 6
		tolerance  = 1e-6
	)
	want := syncPSApplyBaseline(t, opt(), preRounds+postRounds)

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
	for i := range spec["worker"] {
		w := distributed.NewWorker("worker", i, dynResolver)
		srv, err := distributed.Serve(w, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		spec["worker"][i] = srv.Addr()
	}
	cluster = distributed.NewDynamicCluster(spec)

	e, err := train.NewElastic(train.ElasticOptions{
		Cluster: cluster,
		Replicated: train.ReplicatedOptions{
			Optimizer:        opt(),
			Sync:             true,
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

	got := make([][]float64, 2)
	for wi := range got {
		got[wi] = make([]float64, preRounds+postRounds)
	}
	runRound := func(s int) {
		t.Helper()
		var wg sync.WaitGroup
		errCh := make(chan error, 2)
		for wi := 0; wi < 2; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				loss, err := e.TrainStep(wi, krFeeds(int64(wi*1000+s)))
				if err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", wi, s, err)
					return
				}
				got[wi][s] = loss
			}(wi)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}

	// Phase 1: full strength, slot state building on both shards.
	for s := 0; s < preRounds; s++ {
		runRound(s)
	}
	if err := e.SaveNow(); err != nil {
		t.Fatal(err)
	}

	// PS task 1 dies silently; the failure detector evicts it.
	if err := pss[distributed.TaskName("ps", 1)].Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(cluster.LiveTasks("ps")) != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("failure detector never evicted the killed PS; live: %v", cluster.Tasks())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: the first round rebuilds onto the surviving shard, merging
	// parameters AND slot state from the checkpoints.
	for s := preRounds; s < preRounds+postRounds; s++ {
		runRound(s)
	}
	if rs := e.RestoredStep(); rs != preRounds {
		t.Errorf("shard migration restored step %d, want %d (the pinned checkpoint)", rs, preRounds)
	}

	for wi := range want {
		for s := range want[wi] {
			if diff := math.Abs(got[wi][s] - want[wi][s]); diff > tolerance*math.Max(1, math.Abs(want[wi][s])) {
				t.Errorf("worker %d round %d: elastic loss %.9f diverged from baseline %.9f — optimizer slots lost in the rebuild?",
					wi, s, got[wi][s], want[wi][s])
			}
		}
	}
	if gs, err := e.GlobalStep(); err != nil || gs != preRounds+postRounds {
		t.Errorf("global step = %d, %v; want %d", gs, err, preRounds+postRounds)
	}

	// Direct evidence: the surviving shard now owns every slot, and they
	// carry trained (nonzero) state.
	snap := pss[distributed.TaskName("ps", 0)].Worker.Device().Resources().SnapshotVariables()
	for _, name := range slots {
		v := snap[name]
		if v == nil {
			t.Errorf("slot %q missing from the surviving shard after migration", name)
			continue
		}
		nonzero := false
		for i := 0; i < v.NumElements(); i++ {
			if v.FloatAt(i) != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Errorf("slot %q migrated as all zeros; optimizer state was lost", name)
		}
	}
}

// TestSyncRoundAllocatedBytesTCP pins what a steady-state sync round of a
// TCP cluster allocates, every task and the client together. A gradient is
// computed into a buffer its worker recycled from the previous step, and
// decoded on its shard into a buffer the shard's aggregator kept; what is
// left is each worker decoding the parameter it reads and the Momentum rule
// writing the new parameter: about three times the weight's bytes a round,
// not the seven of a round that allocated each gradient twice.
func TestSyncRoundAllocatedBytesTCP(t *testing.T) {
	const (
		in, out       = 512, 128
		batch         = 4
		warm, rounds  = 20, 50
		boundPerRound = 4 // × the weight's bytes
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
		t.Errorf("a sync round allocates %.2f× the weight's bytes, want ≤ %d×", perRound, boundPerRound)
	}
}
