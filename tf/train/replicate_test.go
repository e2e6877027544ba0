package train

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/distributed"
	"repro/internal/simcluster"
	"repro/tf"
	"repro/tf/nn"
)

const (
	repFeatures = 2
	repBatch    = 8
)

var repWTrue = []float32{1.5, -2}

// splitModel is a test model split into its variables and its loss over
// them, so one graph can hold several replicas' losses over a single set of
// variables (runSingleProcess in psapply_test.go).
type splitModel struct {
	vars func(declare func(name string, initial *tf.Tensor) *tf.Variable) []*tf.Variable
	loss func(g *tf.Graph, vars []*tf.Variable) *Model
}

// replica is the model as a ModelFn.
func (m splitModel) replica(rb *ReplicaGraph) (*Model, error) {
	return m.loss(rb.Graph, m.vars(rb.Variable)), nil
}

// linearModel is the shared test model: linear regression with the weight
// and bias sharded across the PS tasks. repModel is its ModelFn.
var linearModel = splitModel{
	vars: func(declare func(string, *tf.Tensor) *tf.Variable) []*tf.Variable {
		return []*tf.Variable{
			declare("w", tf.NewTensor(tf.Float32, tf.Shape{repFeatures, 1})),
			declare("b", tf.NewTensor(tf.Float32, tf.Shape{1})),
		}
	},
	loss: func(g *tf.Graph, vars []*tf.Variable) *Model {
		x := g.Placeholder("x", tf.Float32, tf.Shape{repBatch, repFeatures})
		y := g.Placeholder("y", tf.Float32, tf.Shape{repBatch, 1})
		pred := g.Add(g.MatMul(x, vars[0].Value()), vars[1].Value())
		loss := g.Mean(g.Square(g.Sub(pred, y)), nil, false)
		return &Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}
	},
}

var repModel ModelFn = linearModel.replica

func repFeeds(seed int64) map[string]*tf.Tensor {
	xs, ys := nn.LinearData(seed, repBatch, repFeatures, repWTrue, 0.5, 0.01)
	return map[string]*tf.Tensor{"x": xs, "y": ys}
}

func inprocReplicated(t *testing.T, opts ReplicatedOptions, psTasks, workers int) (*Replicated, *distributed.InProcCluster) {
	t.Helper()
	spec := distributed.ClusterSpec{
		"ps":     make([]string, psTasks),
		"worker": make([]string, workers),
	}
	cluster := distributed.NewInProcCluster(spec)
	opts.Cluster = spec
	opts.Resolver = cluster.Resolver()
	if opts.Optimizer == nil {
		opts.Optimizer = &GradientDescent{LearningRate: 0.1}
	}
	r, err := NewReplicated(opts, repModel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, cluster
}

func TestReplicatedAsyncTrainsAndShards(t *testing.T) {
	r, cluster := inprocReplicated(t, ReplicatedOptions{}, 2, 2)
	if step, err := r.Init(); err != nil || step != 0 {
		t.Fatalf("Init = %d, %v", step, err)
	}

	var first, last float64
	const steps = 40
	for s := 0; s < steps; s++ {
		wi := s % 2
		loss, err := r.TrainStep(wi, repFeeds(int64(s)))
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first/10 {
		t.Errorf("async training did not converge: first %.4f, last %.4f", first, last)
	}
	if step, err := r.GlobalStep(); err != nil || step != steps {
		t.Errorf("global step = %d, %v; want %d", step, err, steps)
	}
	// The model parameters are sharded round-robin: w on ps/0, b on ps/1;
	// the global step rides on ps/0.
	ps0 := cluster.Workers["/job:ps/task:0"].Device().Resources().VariableNames()
	ps1 := cluster.Workers["/job:ps/task:1"].Device().Resources().VariableNames()
	if len(ps0) == 0 || len(ps1) == 0 {
		t.Errorf("variables not sharded: ps0=%v ps1=%v", ps0, ps1)
	}
	for _, wt := range []string{"/job:worker/task:0", "/job:worker/task:1"} {
		if names := cluster.Workers[wt].Device().Resources().VariableNames(); len(names) != 0 {
			t.Errorf("%s owns variables %v; parameters belong on the ps job", wt, names)
		}
	}
}

func TestReplicatedAsyncConcurrentWorkers(t *testing.T) {
	r, _ := inprocReplicated(t, ReplicatedOptions{}, 2, 3)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	const perWorker = 15
	var wg sync.WaitGroup
	errCh := make(chan error, r.NumReplicas()*perWorker)
	for wi := 0; wi < r.NumReplicas(); wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < perWorker; s++ {
				if _, err := r.TrainStep(wi, repFeeds(int64(wi*1000+s))); err != nil {
					errCh <- fmt.Errorf("worker %d step %d: %w", wi, s, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// No lost updates on the shared step counter (§4.4, Figure 4a).
	if step, err := r.GlobalStep(); err != nil || step != int64(r.NumReplicas()*perWorker) {
		t.Errorf("global step = %d, %v; want %d", step, err, r.NumReplicas()*perWorker)
	}
}

func TestReplicatedSyncAggregates(t *testing.T) {
	r, _ := inprocReplicated(t, ReplicatedOptions{Sync: true}, 2, 2)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	var wg sync.WaitGroup
	losses := make([][]float64, r.NumReplicas())
	errCh := make(chan error, r.NumReplicas())
	for wi := 0; wi < r.NumReplicas(); wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				loss, err := r.TrainStep(wi, repFeeds(int64(wi*1000+s)))
				if err != nil {
					errCh <- err
					return
				}
				losses[wi] = append(losses[wi], loss)
			}
		}(wi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every worker contributed to every round: exactly `rounds` aggregated
	// applications.
	if step, err := r.GlobalStep(); err != nil || step != rounds {
		t.Errorf("global step = %d, %v; want %d", step, err, rounds)
	}
	for wi, ls := range losses {
		if ls[len(ls)-1] >= ls[0]/10 {
			t.Errorf("worker %d did not converge: %.4f → %.4f", wi, ls[0], ls[len(ls)-1])
		}
	}
}

// TestReplicatedSyncProceedsWithoutStraggler is the m-of-n property of
// Figure 4c: with one backup worker, rounds complete while a straggler is
// stalled, and its stale gradients are discarded when it returns.
func TestReplicatedSyncProceedsWithoutStraggler(t *testing.T) {
	r, _ := inprocReplicated(t, ReplicatedOptions{Sync: true, Backups: 1}, 1, 3)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	// Workers 0 and 1 run freely; worker 2 stays stalled.
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				if _, err := r.TrainStep(wi, repFeeds(int64(wi*1000+s))); err != nil {
					errCh <- err
					return
				}
			}
		}(wi)
	}
	wg.Wait() // m = 2 fresh tuples per round: the stall must not block this
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if step, err := r.GlobalStep(); err != nil || step != rounds {
		t.Fatalf("global step = %d, %v; want %d with the straggler stalled", step, err, rounds)
	}

	// The straggler wakes up: its round-0 gradients are stale, get
	// discarded, and it resumes participating without corrupting the step
	// count (it blocks in the next round's barrier, which needs another
	// worker, so drive worker 0 alongside it).
	var wg2 sync.WaitGroup
	errCh2 := make(chan error, 2)
	for _, wi := range []int{0, 2} {
		wg2.Add(1)
		go func(wi int) {
			defer wg2.Done()
			if _, err := r.TrainStep(wi, repFeeds(42)); err != nil {
				errCh2 <- err
			}
		}(wi)
	}
	wg2.Wait()
	close(errCh2)
	for err := range errCh2 {
		t.Fatal(err)
	}
	if step, err := r.GlobalStep(); err != nil || step != rounds+1 {
		t.Errorf("global step after straggler rejoined = %d, %v; want %d", step, err, rounds+1)
	}
}

// TestReplicatedInitRecoversLostShard is the §4.3 partial-failure case the
// global-step probe alone would miss: a PS task that crashed before its
// first checkpoint restarts empty, while the other shards hold trained
// state. Init must re-run exactly the lost shard's initializers — wedging
// on the uninitialized variable and clobbering the healthy shard are both
// wrong.
func TestReplicatedInitRecoversLostShard(t *testing.T) {
	r, cluster := inprocReplicated(t, ReplicatedOptions{}, 2, 1)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		if _, err := r.TrainStep(0, repFeeds(int64(s))); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	trainedW := cluster.Workers["/job:ps/task:0"].Device().Resources().SnapshotVariables()["w"]
	if trainedW == nil || trainedW.FloatAt(0) == 0 {
		t.Fatal("w should hold trained state on ps task 0")
	}

	// ps task 1 (hosting b) dies with no checkpoint to restore.
	cluster.Workers["/job:ps/task:1"] = distributed.NewWorker("ps", 1, cluster.Resolver())

	r2, err := NewReplicated(ReplicatedOptions{
		Cluster: r.opts.Cluster, Resolver: cluster.Resolver(),
		Optimizer: &GradientDescent{LearningRate: 0.1},
	}, repModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	step, err := r2.Init()
	if err != nil {
		t.Fatalf("Init on a partially lost cluster: %v", err)
	}
	if step != 10 {
		t.Errorf("global step = %d, want 10 (healthy shard untouched)", step)
	}
	afterW := cluster.Workers["/job:ps/task:0"].Device().Resources().SnapshotVariables()["w"]
	if !afterW.Equal(trainedW) {
		t.Errorf("selective init clobbered the healthy shard: %v → %v", trainedW, afterW)
	}
	if b := cluster.Workers["/job:ps/task:1"].Device().Resources().SnapshotVariables()["b"]; b == nil {
		t.Error("lost shard's variable b was not re-initialized")
	}
	if _, err := r2.TrainStep(0, repFeeds(99)); err != nil {
		t.Errorf("training after shard recovery: %v", err)
	}
}

// TestReplicatedSyncFailurePropagates pins the liveness contract: when more
// replicas die than there are backup workers, no round can complete, so
// surviving workers must get the terminal error instead of blocking in the
// barrier forever.
func TestReplicatedSyncFailurePropagates(t *testing.T) {
	spec := distributed.ClusterSpec{"ps": make([]string, 1), "worker": make([]string, 2)}
	cluster := distributed.NewInProcCluster(spec)
	var killWorker1 atomic.Bool
	resolver := func(task string) (distributed.Transport, error) {
		if killWorker1.Load() && task == "/job:worker/task:1" {
			return nil, fmt.Errorf("injected: %s is gone", task)
		}
		return cluster.Resolver()(task)
	}
	r, err := NewReplicated(ReplicatedOptions{
		Cluster: spec, Resolver: resolver,
		Optimizer: &GradientDescent{LearningRate: 0.1},
		Sync:      true,
	}, repModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 2)
	go func() { // worker 0 keeps stepping until the trainer fails
		for {
			if _, err := r.TrainStep(0, repFeeds(1)); err != nil {
				done <- err
				return
			}
		}
	}()
	go func() { // worker 1 completes one round, then its task dies
		if _, err := r.TrainStep(1, repFeeds(2)); err != nil {
			done <- err
			return
		}
		killWorker1.Store(true)
		_, err := r.TrainStep(1, repFeeds(3))
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Error("worker should surface the terminal failure")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("sync trainer hung instead of propagating the replica failure")
		}
	}
}

// TestReplicatedSyncTransientFailuresDontKill: a failing mark is cleared
// when the replica steps successfully again, so two transient outages at
// different times on different replicas never add up to a spurious
// whole-trainer failure.
func TestReplicatedSyncTransientFailuresDontKill(t *testing.T) {
	spec := distributed.ClusterSpec{"ps": make([]string, 1), "worker": make([]string, 3)}
	cluster := distributed.NewInProcCluster(spec)
	var downMu sync.Mutex
	down := map[string]bool{}
	setDown := func(task string, d bool) {
		downMu.Lock()
		down[task] = d
		downMu.Unlock()
	}
	resolver := func(task string) (distributed.Transport, error) {
		downMu.Lock()
		d := down[task]
		downMu.Unlock()
		if d {
			return nil, fmt.Errorf("injected: %s is down", task)
		}
		return cluster.Resolver()(task)
	}
	r, err := NewReplicated(ReplicatedOptions{
		Cluster: spec, Resolver: resolver,
		Optimizer: &GradientDescent{LearningRate: 0.1},
		Sync:      true,
		Backups:   1,
	}, repModel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}

	round := func(a, b int, seed int64) {
		t.Helper()
		var wg sync.WaitGroup
		errCh := make(chan error, 2)
		for _, wi := range []int{a, b} {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				if _, err := r.TrainStep(wi, repFeeds(seed+int64(wi))); err != nil {
					errCh <- err
				}
			}(wi)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}

	round(0, 1, 100)
	// Transient outage on worker 1's task: one failed step marks it...
	setDown("/job:worker/task:1", true)
	if _, err := r.TrainStep(1, repFeeds(1)); err == nil {
		t.Fatal("step against a down task should fail")
	}
	setDown("/job:worker/task:1", false)
	round(0, 1, 200) // ...and a successful step clears the mark.
	// A later, unrelated outage on worker 0 must not combine with it.
	setDown("/job:worker/task:0", true)
	if _, err := r.TrainStep(0, repFeeds(2)); err == nil {
		t.Fatal("step against a down task should fail")
	}
	round(1, 2, 300)
	if step, err := r.GlobalStep(); err != nil || step != 3 {
		t.Errorf("global step = %d, %v; want 3 (trainer alive through both transients)", step, err)
	}
}

func TestReplicatedCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "ckpt")
	r, _ := inprocReplicated(t, ReplicatedOptions{
		CheckpointPrefix: prefix,
		CheckpointEvery:  5,
		KeepCheckpoints:  2,
	}, 2, 1)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 12; s++ {
		if _, err := r.TrainStep(0, repFeeds(int64(s))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SaveErr(); err != nil {
		t.Fatal(err)
	}
	// Steps 5 and 10 crossed the cadence: both shards should have files,
	// keyed by the global step.
	for _, shard := range []string{"ckpt.ps-0", "ckpt.ps-1"} {
		matches, _ := filepath.Glob(filepath.Join(dir, shard+"-*"))
		if len(matches) == 0 {
			t.Errorf("no checkpoints written for %s", shard)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt.ps-0-10")); err != nil {
		t.Errorf("expected a step-10 checkpoint for ps shard 0: %v", err)
	}
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt.ps-0-12")); err != nil {
		t.Errorf("SaveNow should write the step-12 shard: %v", err)
	}
}

// TestReplicatedSaveWritesEachTaskShard: SaveNow runs one Save per PS task,
// and each task's file holds exactly the variables the trainer places there
// — parameters, the Momentum slots beside them and, on task 0, the global
// step. A second save at the same step rewrites identical bytes and adds no
// file.
func TestReplicatedSaveWritesEachTaskShard(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "ckpt")
	r, _ := inprocReplicated(t, ReplicatedOptions{
		Sync:             true,
		Optimizer:        &Momentum{LearningRate: 0.05, Decay: 0.9},
		CheckpointPrefix: prefix,
		CheckpointEvery:  1000, // only explicit saves
	}, 2, 1)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	const steps = 3
	for s := 0; s < steps; s++ {
		if _, err := r.TrainStep(0, repFeeds(int64(s))); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]string{
		"ckpt.ps-0-3": {"global_step", "w", "w/momentum"},
		"ckpt.ps-1-3": {"b", "b/momentum"},
	}
	files := map[string][]byte{}
	for i := 0; i < 2; i++ {
		if err := r.SaveNow(); err != nil {
			t.Fatal(err)
		}
		matches, _ := filepath.Glob(filepath.Join(dir, "ckpt.ps-*"))
		if len(matches) != len(want) {
			t.Fatalf("save %d left files %v, want one per task", i+1, matches)
		}
		for name, vars := range want {
			path := filepath.Join(dir, name)
			tensors, err := checkpoint.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := slices.Sorted(maps.Keys(tensors)); !slices.Equal(got, vars) {
				t.Errorf("%s holds %v, want %v", name, got, vars)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := files[name]; ok && !bytes.Equal(prev, data) {
				t.Errorf("saving step %d again changed %s", steps, name)
			}
			files[name] = data
		}
	}
}

// TestSaveNowWithoutPrefixFails: a trainer built with no CheckpointPrefix has
// nowhere to save, so SaveNow reports the missing prefix and writes nothing —
// not a shard file named after the empty prefix in the working directory.
func TestSaveNowWithoutPrefixFails(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	r, _ := inprocReplicated(t, ReplicatedOptions{}, 1, 1)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.TrainStep(0, repFeeds(0)); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveNow(); err == nil || !strings.Contains(err.Error(), "CheckpointPrefix") {
		t.Errorf("SaveNow with no prefix = %v, want an error naming CheckpointPrefix", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("SaveNow with no prefix left %s in the working directory", e.Name())
	}
}

// TestSimulatorPredictsBackupWorkerBenefit validates the simulator's §4.4
// prediction — under a heavy straggler tail, synchronous training with one
// backup worker beats plain synchronous coordination — and checks the real
// runtime agrees: with one replica stalled, the m-of-n barrier completes
// rounds in far less wall-clock time than any schedule that waited for the
// straggler could.
func TestSimulatorPredictsBackupWorkerBenefit(t *testing.T) {
	// Simulator side (Figure 8): same cluster, with and without a backup.
	base := simcluster.ClusterConfig{
		Workers: 2, PSTasks: 1, Sync: true,
		ModelBytes: 1e6, ComputeTime: 5e-3,
		StragglerSigma: 0.3, SpikeProb: 0.3,
	}
	withBackup := base
	withBackup.Backups = 1
	withBackup.Workers = 2 // still aggregate 2 of 3
	plain := simcluster.SimulateCluster(base, 200)
	backup := simcluster.SimulateCluster(withBackup, 200)
	if backup.Median() >= plain.Median() {
		t.Errorf("sim: backup worker should cut the median sync step under a straggler tail: %.4fs vs %.4fs",
			backup.Median(), plain.Median())
	}

	// Real runtime side: 3 replicas, m = 2; replica 2 stalls `stall` per
	// step. If rounds waited for it, `rounds` rounds would take at least
	// rounds×stall; the m-of-n barrier must come in well under half that.
	const (
		rounds = 6
		stall  = 150 * time.Millisecond
	)
	r, _ := inprocReplicated(t, ReplicatedOptions{Sync: true, Backups: 1}, 1, 3)
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { // the straggler: stalls before every contribution
		for {
			select {
			case <-done:
				return
			case <-time.After(stall):
			}
			if _, err := r.TrainStep(2, repFeeds(7)); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				if _, err := r.TrainStep(wi, repFeeds(int64(wi*100+s))); err != nil {
					errCh <- err
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(done)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if lower := time.Duration(rounds) * stall; elapsed >= lower/2 {
		t.Errorf("real runtime: %d m-of-n rounds took %v; waiting on the straggler would take ≥ %v — backup workers should decouple the barrier from the tail",
			rounds, elapsed, lower)
	}
	r.Close()
}
