package train

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/distributed"
	"repro/tf"
)

// This file makes replicated training elastic: where Replicated is built
// once against a frozen task set, ElasticReplicated follows a
// DynamicCluster through task failures, replacements and scale changes
// mid-training. The mechanism is generations: each generation is a
// Replicated trainer over the cluster's live slots at some membership
// version. When membership drifts, the next TrainStep rebuilds —
// cheaply (Invalidate + redial) when tasks were only replaced at their
// slots, fully (new Replicated over the new live sets, with shard state
// migrated through checkpoints) when the live sets changed. Callers see
// one long-lived trainer whose steps ride through the churn.

// ElasticOptions configures an elastic replicated trainer.
type ElasticOptions struct {
	// Cluster is the dynamic membership table the trainer follows.
	Cluster *distributed.DynamicCluster
	// WrapResolver optionally wraps the cluster's dynamic resolver —
	// this is where the chaos transport hooks in. nil uses the resolver
	// as is.
	WrapResolver func(distributed.Resolver) distributed.Resolver

	// Replicated configures every generation's trainer; its Optimizer is
	// required. Membership supplies Cluster, Resolver, WorkerTasks and
	// PSTasks, so those must be left unset. Backups is the backup-worker
	// count b, used per generation as min(b, live workers − 1) so the
	// m-of-n barrier always tracks live membership (§4.4). A
	// CheckpointPrefix also enables shard migration between generations.
	Replicated ReplicatedOptions

	// Heartbeat.Interval > 0 starts a failure detector over the cluster
	// so silent task deaths turn into membership changes without operator
	// intervention.
	Heartbeat distributed.FailureDetectorOptions

	// RebuildWait bounds how long a TrainStep keeps retrying through
	// failures and rebuilds before giving up (default 30s). It is the
	// dual of the paper's observation that recovery is routine: a step
	// only fails once the cluster stayed untrainable this long.
	RebuildWait time.Duration
}

func (o *ElasticOptions) withDefaults() error {
	if o.Cluster == nil {
		return fmt.Errorf("train: elastic training needs a dynamic cluster")
	}
	r := &o.Replicated
	if r.Optimizer == nil {
		return fmt.Errorf("train: elastic training needs an optimizer")
	}
	if r.Cluster != nil || r.Resolver != nil || r.WorkerTasks != nil || r.PSTasks != nil {
		return fmt.Errorf("train: elastic training takes its cluster, resolver and tasks from membership")
	}
	if r.PSJob == "" {
		r.PSJob = "ps"
	}
	if r.WorkerJob == "" {
		r.WorkerJob = "worker"
	}
	if o.RebuildWait <= 0 {
		o.RebuildWait = 30 * time.Second
	}
	return nil
}

// generation is one Replicated trainer pinned to a membership version.
type generation struct {
	num     int64
	version int64
	rep     *Replicated
	workers []int
	psTasks []int
}

// ElasticReplicated is a data-parallel trainer over a dynamic cluster.
// TrainStep transparently retries across task failures and membership
// changes; Close stops the current generation and the failure detector.
type ElasticReplicated struct {
	opts     ElasticOptions
	model    ModelFn
	resolver distributed.Resolver
	detector *distributed.FailureDetector

	mu       sync.Mutex
	cond     *sync.Cond
	gen      *generation
	building bool
	closed   bool

	restoreMu    sync.Mutex
	restoredStep int64 // last merged-restore step; -1 when none happened
}

// NewElastic builds the first generation over the cluster's current live
// tasks and, when heartbeats are enabled, starts the failure detector.
func NewElastic(opts ElasticOptions, model ModelFn) (*ElasticReplicated, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	resolver := opts.Cluster.Resolver()
	if opts.WrapResolver != nil {
		resolver = opts.WrapResolver(resolver)
	}
	e := &ElasticReplicated{opts: opts, model: model, resolver: resolver, restoredStep: -1}
	e.cond = sync.NewCond(&e.mu)
	if opts.Heartbeat.Interval > 0 {
		e.detector = distributed.NewFailureDetector(opts.Cluster, opts.Heartbeat)
	}
	gen, err := e.build(nil)
	if err != nil {
		if e.detector != nil {
			e.detector.Close()
		}
		return nil, err
	}
	e.gen = gen
	return e, nil
}

// current returns a generation matching the cluster's membership version,
// rebuilding when it drifted. Exactly one caller builds; the rest wait.
func (e *ElasticReplicated) current() (*generation, error) {
	e.mu.Lock()
	for {
		if e.closed {
			e.mu.Unlock()
			return nil, fmt.Errorf("train: elastic trainer closed")
		}
		if e.building {
			e.cond.Wait()
			continue
		}
		g := e.gen
		if g != nil && g.version == e.opts.Cluster.Version() {
			e.mu.Unlock()
			return g, nil
		}
		e.building = true
		e.mu.Unlock()

		gen, err := e.build(g)

		e.mu.Lock()
		e.building = false
		if err == nil {
			e.gen = gen
		}
		e.cond.Broadcast()
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		// Loop: membership may have moved again while building.
	}
}

// build produces a generation for the cluster's current membership. With
// identical live sets — tasks replaced in place at new addresses — the old
// trainer survives: its masters just drop cached registrations and the
// dynamic resolver redials (replacement PS tasks restored their own slot
// checkpoints on start). Changed live sets force a full rebuild.
func (e *ElasticReplicated) build(old *generation) (*generation, error) {
	c, ro := e.opts.Cluster, &e.opts.Replicated
	deadline := time.Now().Add(e.opts.RebuildWait)
	watch, cancel := c.Watch()
	defer cancel()
	for {
		version := c.Version()
		workers := c.LiveTasks(ro.WorkerJob)
		ps := c.LiveTasks(ro.PSJob)
		if len(workers) > 0 && len(ps) > 0 {
			if old != nil && sameTasks(old.workers, workers) && sameTasks(old.psTasks, ps) {
				old.rep.Invalidate()
				return &generation{num: old.num + 1, version: version, rep: old.rep,
					workers: workers, psTasks: ps}, nil
			}
			return e.rebuild(old, workers, ps, version)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("train: cluster has no live %q+%q tasks after %v",
				ro.WorkerJob, ro.PSJob, e.opts.RebuildWait)
		}
		wait := 20 * time.Millisecond
		if remain < wait {
			wait = remain
		}
		select {
		case <-watch:
		case <-time.After(wait):
		}
	}
}

// rebuild replaces the trainer: checkpoint what the old generation can
// still reach, close it, build a Replicated over the new live sets, and —
// when the PS set changed, so the round-robin variable→shard mapping moved
// — migrate state by restoring every variable from the freshest shard
// checkpoint that holds it.
func (e *ElasticReplicated) rebuild(old *generation, workers, ps []int, version int64) (*generation, error) {
	var num int64 = 1
	psChanged := false
	ro := e.opts.Replicated
	if old != nil {
		num = old.num + 1
		psChanged = !sameTasks(old.psTasks, ps)
		if ro.CheckpointPrefix != "" {
			// Best effort: dead shards fail their save, surviving shards pin
			// their post-churn state so no applied step is lost to migration.
			_ = old.rep.SaveNow()
		}
		old.rep.Close()
	}
	ro.Cluster, ro.Resolver = e.opts.Cluster.Snapshot(), e.resolver
	ro.WorkerTasks, ro.PSTasks = workers, ps
	if ro.Sync && ro.Backups >= len(workers) {
		ro.Backups = len(workers) - 1
	}
	rep, err := NewReplicated(ro, e.model)
	if err != nil {
		return nil, err
	}
	if _, err := rep.Init(); err != nil {
		rep.Close()
		return nil, fmt.Errorf("train: initializing generation %d: %w", num, err)
	}
	if old != nil && psChanged && ro.CheckpointPrefix != "" {
		values, step, err := mergedCheckpoint(ro.CheckpointPrefix, ro.PSJob, e.opts.Cluster.Slots(ro.PSJob))
		if err != nil {
			rep.Close()
			return nil, err
		}
		if len(values) > 0 {
			if _, err := rep.RestoreVariables(values); err != nil {
				rep.Close()
				return nil, fmt.Errorf("train: migrating shards into generation %d: %w", num, err)
			}
			e.restoreMu.Lock()
			e.restoredStep = step
			e.restoreMu.Unlock()
		}
	}
	return &generation{num: num, version: version, rep: rep, workers: workers, psTasks: ps}, nil
}

// mergedCheckpoint reads every PS slot's newest shard checkpoint and keeps,
// per variable, the copy from the highest-step file. The per-variable merge
// is what makes migration correct across remappings: after a scale-down
// every variable was checkpointed by its new owner at a later step than the
// stale file of the slot it left behind.
func mergedCheckpoint(prefix, psJob string, slots int) (map[string]*tf.Tensor, int64, error) {
	values := map[string]*tf.Tensor{}
	from := map[string]int64{}
	var newest int64 = -1
	for idx := 0; idx < slots; idx++ {
		shard, err := distributed.ShardPrefix(prefix, distributed.TaskName(psJob, idx))
		if err != nil {
			return nil, 0, err
		}
		path, step, err := checkpoint.LatestStep(shard)
		if err != nil {
			return nil, 0, fmt.Errorf("train: scanning shard checkpoints %s: %w", shard, err)
		}
		if path == "" {
			continue
		}
		tensors, err := checkpoint.Read(path)
		if err != nil {
			return nil, 0, fmt.Errorf("train: reading shard checkpoint %s: %w", path, err)
		}
		for name, t := range tensors {
			if prev, ok := from[name]; !ok || step > prev {
				values[name] = t
				from[name] = step
			}
		}
		if step > newest {
			newest = step
		}
	}
	return values, newest, nil
}

// sameTasks reports whether two sorted task-index sets are identical.
func sameTasks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// elasticRetryable: errors worth riding out with a rebuild — transport
// unavailability (a task died or is partitioned) and steps cut short
// because their generation was closed under them mid-rebuild.
func elasticRetryable(err error) bool {
	return distributed.IsRetryable(err) || strings.Contains(err.Error(), "replicated trainer closed")
}

// TrainStep runs one training step, riding through failures: a retryable
// error waits for membership to change (the failure detector's verdict, a
// replacement's join) and retries on whatever generation is then current,
// up to RebuildWait. wi indexes the current generation's replicas modulo
// their count, so a fixed worker-loop id stays valid as replicas come and
// go.
func (e *ElasticReplicated) TrainStep(wi int, feeds map[string]*tf.Tensor) (float64, error) {
	deadline := time.Now().Add(e.opts.RebuildWait)
	for {
		gen, err := e.current()
		if err != nil {
			return 0, err
		}
		loss, err := gen.rep.TrainStep(wi%gen.rep.NumReplicas(), feeds)
		if err == nil {
			return loss, nil
		}
		if !elasticRetryable(err) {
			return 0, err
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("train: step did not recover within %v: %w", e.opts.RebuildWait, err)
		}
		e.waitChange(gen.version, 20*time.Millisecond)
	}
}

// waitChange blocks until the cluster version moves past seen, or at most
// max — long enough to yield to the failure detector, short enough that a
// retry whose fault was transient (a chaos drop) is not stalled behind a
// membership change that never comes.
func (e *ElasticReplicated) waitChange(seen int64, max time.Duration) {
	watch, cancel := e.opts.Cluster.Watch()
	defer cancel()
	if e.opts.Cluster.Version() != seen {
		return
	}
	select {
	case <-watch:
	case <-time.After(max):
	}
}

// GlobalStep reads the shared step counter through the current generation.
func (e *ElasticReplicated) GlobalStep() (int64, error) {
	gen, err := e.current()
	if err != nil {
		return 0, err
	}
	return gen.rep.GlobalStep()
}

// SaveNow checkpoints every live PS shard at the current global step.
func (e *ElasticReplicated) SaveNow() error {
	gen, err := e.current()
	if err != nil {
		return err
	}
	return gen.rep.SaveNow()
}

// NumWorkers returns the current generation's replica count.
func (e *ElasticReplicated) NumWorkers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen == nil {
		return 0
	}
	return e.gen.rep.NumReplicas()
}

// Generation returns the current generation number (1 for the first build;
// it advances on every membership-driven rebuild or re-registration).
func (e *ElasticReplicated) Generation() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen == nil {
		return 0
	}
	return e.gen.num
}

// RestoredStep returns the checkpoint step of the last shard migration
// (merged restore), or -1 when none has happened.
func (e *ElasticReplicated) RestoredStep() int64 {
	e.restoreMu.Lock()
	defer e.restoreMu.Unlock()
	return e.restoredStep
}

// Close stops the failure detector and the current generation. PS state
// outlives the trainer, as with Replicated.
func (e *ElasticReplicated) Close() {
	if e.detector != nil {
		e.detector.Close()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for e.building {
		e.cond.Wait()
	}
	gen := e.gen
	e.cond.Broadcast()
	e.mu.Unlock()
	if gen != nil {
		gen.rep.Close()
	}
}
