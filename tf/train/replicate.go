package train

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/tf"
)

// This file implements data-parallel replicated training over the real
// distributed runtime (§4.3, §4.4): model parameters are sharded across the
// tasks of a "ps" job, each task of a "worker" job runs its own between-graph
// replica — a private graph and master whose variables alias the shared PS
// state by name — and updates are coordinated either asynchronously (every
// replica applies its own gradients, Figure 4a) or synchronously with backup
// workers (the first m of n replica gradients per step are aggregated and
// applied once, stragglers' stale updates are discarded, Figure 4c).
//
// A synchronous step is one distributed step per replica: the worker task
// reads the parameters from their shards, computes the gradients, and its
// graph's PushGradients node sends each gradient to the shard owning the
// variable, which sums the round's first m contributions, applies the
// optimizer's update rule next to the variable and releases the pushers. A
// gradient crosses the network once, worker to shard; the client feeds the
// round and fetches the loss and the applied round.
//
// Fault tolerance is user-level, as in the paper: each master retries steps
// whose task became unreachable (re-registering subgraphs after the task
// returns), the client checkpoints each PS task's variable shard every
// CheckpointEvery global steps by running that task's Save op, and a
// restarted PS task restores its shard from the newest checkpoint before
// serving again (§4.3).

// The jobs of a replicated trainer's cluster: the PS tasks hold the
// variables, the worker tasks run the replicas.
const (
	psJob     = "ps"
	workerJob = "worker"
)

// ReplicatedOptions configures a replicated trainer.
type ReplicatedOptions struct {
	// Cluster and Resolver name the tasks and locate their transports; the
	// cluster's jobs are "ps" and "worker".
	Cluster  distributed.ClusterSpec
	Resolver distributed.Resolver
	// Optimizer applies gradients; it is required, and in sync mode it must
	// implement UpdateRuler (every optimizer in this package does).
	Optimizer Optimizer
	// Sync selects synchronous coordination (Figure 4b/4c); Backups is the
	// number of backup workers b: with n worker tasks, each synchronous
	// step aggregates the first m = n−b gradients (§4.4). Each worker
	// task pushes its gradients from inside its step to the PS shard
	// owning each variable, which applies the optimizer's update rule next
	// to it, so no client ever carries gradient traffic.
	Sync    bool
	Backups int
	// CheckpointPrefix enables fault tolerance: every CheckpointEvery
	// global steps each PS task's Save op writes the variables placed there
	// to "<prefix>.<job>-<task>-<step>", and the client keeps the newest
	// KeepCheckpoints files of each shard: the prefix must name a
	// filesystem the tasks and the client share.
	CheckpointPrefix string
	CheckpointEvery  int // default 10 when a prefix is set
	KeepCheckpoints  int // default 3
	// StepRetries is each master's retry budget for failed steps, and a
	// sync push's budget for re-sending to one shard (default 3).
	StepRetries int
}

func (o *ReplicatedOptions) withDefaults() error {
	if o.Optimizer == nil {
		return fmt.Errorf("train: replicated training needs an optimizer")
	}
	if len(o.Cluster[psJob]) == 0 {
		return fmt.Errorf("train: cluster has no %q tasks", psJob)
	}
	if len(o.Cluster[workerJob]) == 0 {
		return fmt.Errorf("train: cluster has no %q tasks", workerJob)
	}
	if o.Backups < 0 || (o.Sync && o.Backups >= len(o.Cluster[workerJob])) {
		return fmt.Errorf("train: %d backup workers leave no gradients to aggregate", o.Backups)
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 3
	}
	if o.StepRetries == 0 {
		o.StepRetries = 3
	}
	return nil
}

// ReplicaGraph is the graph handle a ModelFn builds into. Compute lands on
// the replica's worker task: the embedded view carries the device scope,
// gradient nodes follow their forward nodes, and the replica's master
// defaults whatever is left unconstrained to the same task. Variable shards
// parameters round-robin across the PS tasks, which hold state and the ops
// on its reference edges (reads, and a lookup the sparse-read pass moved
// beside its table) — the device-placement policy of the reference system's
// replica_device_setter. The round-robin order is the variable creation
// order, so a deterministic ModelFn yields the same name→shard mapping in
// every replica, which is what makes same-named variables alias the same
// PS state.
type ReplicaGraph struct {
	*tf.Graph // worker-task-scoped view
	root      *tf.Graph
	psTasks   []string
	vars      []*tf.Variable
	varTasks  []string // PS task owning each variable, by vars index
	nextPS    int
}

// Variable declares a model parameter on the next PS shard.
func (rb *ReplicaGraph) Variable(name string, initial *tf.Tensor) *tf.Variable {
	dev := rb.psTasks[rb.nextPS%len(rb.psTasks)]
	rb.nextPS++
	v := rb.root.WithDevice(dev).NewVariableFromTensor(name, initial)
	rb.vars = append(rb.vars, v)
	rb.varTasks = append(rb.varTasks, dev)
	return v
}

// Model is what a ModelFn returns: the scalar training loss and the named
// input placeholders TrainStep feeds.
type Model struct {
	Loss   tf.Output
	Inputs map[string]tf.Output
}

// ModelFn builds one replica's model. It runs once per worker task and must
// be deterministic (same variables, same order) so the replicas agree on
// parameter names and shards.
type ModelFn func(rb *ReplicaGraph) (*Model, error)

// globalStepName is the shared step counter's variable name; it lives on PS
// task 0 and keys checkpoint files (§4.3).
const globalStepName = "global_step"

type replica struct {
	master *distributed.Master
	model  *Model
	vars   []*tf.Variable

	lossEP graph.Endpoint
	stepEP graph.Endpoint

	// Async: optimizer update + global-step bump, run by every TrainStep.
	trainTargets []*graph.Node
	// Sync: the replica computes gradients (a sparse one occupies two
	// endpoints, indices and values) and its push node sends them to the
	// PS shards, which apply them; roundEP feeds the round, pushEP is the
	// highest round the shards report applied.
	gradEPs []graph.Endpoint
	roundEP graph.Endpoint
	pushEP  graph.Endpoint
}

// Replicated is a data-parallel trainer: one between-graph replica per
// worker task over shared PS state. Worker loops call TrainStep
// concurrently; in sync mode the round-tagged aggregator on each PS shard is
// the barrier between them.
type Replicated struct {
	opts ReplicatedOptions
	reps []*replica

	// Per-initializer probes on replica 0's graph: Init re-runs exactly the
	// initializers whose variable is uninitialized (a shard lost with no
	// checkpoint) without clobbering healthy shards.
	probeEPs  []graph.Endpoint
	initNodes []*graph.Node
	// Checkpoint graph on replica 0: one Save per PS task (§4.3).
	saves []shardSave

	mu    sync.Mutex
	round int64        // sync: the next round, == the global step it starts from
	err   error        // first terminal error (Close counts); broadcast to all workers
	dead  map[int]bool // sync replicas whose steps fail terminally

	quit     chan struct{} // closed with err set: aborts the steps blocked in their pushes
	quitOnce sync.Once

	saveMu    sync.Mutex
	lastSaved int64
	saveErr   error
}

// shardSave is one PS task's Save and the placeholder for its file name.
type shardSave struct {
	task  string
	shard string // distributed.ShardPrefix of the task
	file  graph.Endpoint
	op    *graph.Node
}

// NewReplicated builds one replica per worker task. Call Init before the
// first TrainStep.
func NewReplicated(opts ReplicatedOptions, model ModelFn) (*Replicated, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	numWorkers := len(opts.Cluster[workerJob])
	psTasks := make([]string, len(opts.Cluster[psJob]))
	for i := range psTasks {
		psTasks[i] = distributed.TaskName(psJob, i)
	}
	r := &Replicated{opts: opts, quit: make(chan struct{}), dead: map[int]bool{}}
	var rule distributed.UpdateRule
	if opts.Sync {
		ur, ok := opts.Optimizer.(UpdateRuler)
		if !ok {
			return nil, fmt.Errorf("train: sync replicated training applies the update on the PS shards; %T has no UpdateRule to ship them", opts.Optimizer)
		}
		rule = ur.UpdateRule()
	}

	for wi := 0; wi < numWorkers; wi++ {
		g := tf.NewGraph()
		workerTask := distributed.TaskName(workerJob, wi)
		wg := g.WithDevice(workerTask)
		rb := &ReplicaGraph{Graph: wg, root: g, psTasks: psTasks}
		m, err := model(rb)
		if err != nil {
			return nil, fmt.Errorf("train: replica %d model: %w", wi, err)
		}
		if m == nil || !m.Loss.Valid() {
			return nil, fmt.Errorf("train: replica %d model has no loss", wi)
		}
		psView := g.WithDevice(psTasks[0])
		gs := psView.NewVariableFromTensor(globalStepName, tf.ScalarInt(0))
		rep := &replica{model: m, vars: rb.vars, lossEP: m.Loss.Unwrap(), stepEP: gs.Value().Unwrap()}

		if opts.Sync {
			// The replica computes gradients — dense tensors, or sparse
			// (indices, values) pairs left undensified so embedding
			// updates can land as scatter ops. Applying them is the
			// shards' job, so every worker reads the same parameter version
			// per round (Figure 4b).
			eps, sparse, err := replicaGradients(wg, m.Loss, rb.vars)
			if err != nil {
				return nil, fmt.Errorf("train: replica %d gradients: %w", wi, err)
			}
			// The worker task pushes them, tagged with the fed round, to
			// the shards owning the variables, where the round is
			// aggregated m-of-n and the update rule applied (§4.4). The
			// push blocks until the round applies, so the step returning
			// IS the barrier. The shard owning the global step always gets
			// a push, to advance the counter.
			spec := distributed.PushSpec{
				Tasks: rb.varTasks, Sparse: sparse,
				NumFresh: numWorkers - opts.Backups, // m of n
				Rule:     rule,
				StepTask: psTasks[0], StepName: globalStepName,
				Retries: opts.StepRetries,
			}
			round := wg.Placeholder("replicate/round", tf.Int64, tf.Shape{})
			ins := []tf.Output{round}
			for _, v := range rb.vars {
				spec.Vars = append(spec.Vars, v.Name())
			}
			for _, ep := range eps {
				ins = append(ins, g.WrapOutput(ep))
			}
			push := wg.BuildOp("PushGradients", "replicate/push", spec.Attrs(), ins...)
			rep.gradEPs, rep.roundEP, rep.pushEP = eps, round.Unwrap(), push.Output(0).Unwrap()
			if wi == 0 {
				// The shards build the update rule's graph themselves and
				// no client ever runs this copy: building it declares the
				// rule's slot variables, so initialization, probes and the
				// shards' checkpoints cover the optimizer state the shards
				// update.
				applyGrads := make([]tf.Gradient, len(rb.vars))
				for i, v := range rb.vars {
					applyGrads[i] = tf.Gradient{Dense: g.Placeholder(fmt.Sprintf("replicate/mean_grad_%d", i), v.DType(), v.Shape())}
				}
				if _, err := opts.Optimizer.ApplyGradients(psView, applyGrads, rb.vars); err != nil {
					return nil, err
				}
			}
		} else {
			trainOp, err := opts.Optimizer.Minimize(wg, m.Loss, rb.vars)
			if err != nil {
				return nil, fmt.Errorf("train: replica %d optimizer: %w", wi, err)
			}
			// The global step increments strictly after the parameter update
			// has applied. The ordering matters for step retries (§4.3): a
			// failed attempt whose gradients never reached the PS must not
			// advance the counter, or the retried step would count (and
			// checkpoint-key) twice.
			one := psView.IdentityWithControl(psView.Const(int32(1)), trainOp)
			rep.trainTargets = []*graph.Node{trainOp.Node(), gs.AssignAdd(one).Node()}
		}
		if wi == 0 {
			// One probe per registered initializer — model variables,
			// optimizer slots, the global step — colocated with its
			// variable via the reference edge, so each runs on the shard
			// whose health it reports.
			for i, n := range g.InitNodes() {
				probe := g.BuildOp("IsVariableInitialized",
					fmt.Sprintf("replicate/initialized_%d", i), nil, g.WrapOutput(n.Input(0)))
				r.probeEPs = append(r.probeEPs, probe.Output(0).Unwrap())
				r.initNodes = append(r.initNodes, n)
			}
			if r.saves, err = buildSaves(g, psTasks, opts.CheckpointPrefix); err != nil {
				return nil, err
			}
		}
		if err := g.Err(); err != nil {
			return nil, fmt.Errorf("train: replica %d graph: %w", wi, err)
		}
		master, err := distributed.NewMaster(g.Raw(), opts.Cluster, opts.Resolver,
			distributed.MasterOptions{StepRetries: opts.StepRetries, DefaultDevice: workerTask})
		if err != nil {
			return nil, err
		}
		rep.master = master
		r.reps = append(r.reps, rep)
	}
	return r, nil
}

// buildSaves builds one Save per PS task over the variables placed there:
// parameters, the optimizer slots beside them (a slot has no device and
// takes its parameter's through its colocation hint) and, on the first
// task, the global step.
func buildSaves(g *tf.Graph, psTasks []string, prefix string) ([]shardSave, error) {
	byTask := map[string][]*graph.Node{}
	for _, n := range g.Builder().Vars() {
		task := n.Device()
		if hints := n.Colocation(); task == "" && len(hints) > 0 {
			task = g.Raw().ByName(hints[0]).Device()
		}
		byTask[task] = append(byTask[task], n)
	}
	var saves []shardSave
	for i, task := range psTasks {
		vars := byTask[task]
		if len(vars) == 0 {
			continue
		}
		shard, err := distributed.ShardPrefix(prefix, task)
		if err != nil {
			return nil, err
		}
		tv := g.WithDevice(task)
		names := make([]string, len(vars))
		ins := []tf.Output{tv.Placeholder(fmt.Sprintf("replicate/save_file_%d", i), tf.String, tf.Shape{}), {}}
		for j, n := range vars {
			names[j] = n.Name()
			ins = append(ins, tv.BuildOp("Read", "", nil, g.WrapOutput(n.Out(0))).Output(0))
		}
		ins[1] = tv.Const(names)
		save := tv.BuildOp("Save", fmt.Sprintf("replicate/save_%d", i), nil, ins...)
		saves = append(saves, shardSave{task: task, shard: shard, file: ins[0].Unwrap(), op: save.Node()})
	}
	return saves, nil
}

// replicaGradients builds the per-variable gradient endpoints of loss and
// the plan describing their layout. The backward pass lands on the replica's
// worker, beside the forward nodes it differentiates: each parameter crosses
// from its shard once per step and no gradient leaves the worker before it
// is pushed. Dense gradients occupy one endpoint;
// sparse gradients stay sparse — two endpoints (indices, values) — so an
// embedding gradient travels as the rows the step touched, never expanded
// to vocabulary size (§4.2). Zero gradients contribute dense zeros so the
// tuple stays positional (and so stateful rules, e.g. momentum decay,
// still see the variable every round).
func replicaGradients(g *tf.Graph, loss tf.Output, vars []*tf.Variable) ([]graph.Endpoint, []bool, error) {
	xs := make([]tf.Output, len(vars))
	for i, v := range vars {
		xs[i] = v.Value()
	}
	grads, err := g.Gradients([]tf.Output{loss}, xs)
	if err != nil {
		return nil, nil, err
	}
	var eps []graph.Endpoint
	sparse := make([]bool, len(grads))
	for i, gr := range grads {
		switch {
		case gr.IsZero():
			eps = append(eps, g.Const(tf.NewTensor(vars[i].DType(), vars[i].Shape())).Unwrap())
		case gr.Sparse != nil:
			sparse[i] = true
			eps = append(eps, gr.Sparse.Indices.Unwrap(), gr.Sparse.Values.Unwrap())
		default:
			eps = append(eps, gr.Dense.Unwrap())
		}
	}
	return eps, sparse, g.Err()
}

// Init prepares the shared state variable by variable: initialized state —
// left by an earlier client, or restored by restarted tasks from their
// shard checkpoints (§4.3) — is kept untouched, while uninitialized
// variables (a fresh cluster, or a shard lost before its first checkpoint)
// get exactly their own initializers run. It returns the global step
// training resumes from.
func (r *Replicated) Init() (int64, error) {
	first := r.reps[0]
	probes, err := first.master.Run(nil, r.probeEPs, nil, nil)
	if err != nil {
		return 0, err
	}
	var missing []*graph.Node
	for i, t := range probes {
		if !t.Bools()[0] {
			missing = append(missing, r.initNodes[i])
		}
	}
	if len(missing) > 0 {
		if _, err := first.master.Run(nil, nil, missing, nil); err != nil {
			return 0, err
		}
	}
	step, err := r.GlobalStep()
	if err != nil {
		return 0, err
	}
	r.saveMu.Lock()
	r.lastSaved = step
	r.saveMu.Unlock()
	// Sync rounds are absolute (round k produces global step k+1), so start
	// from the restored step.
	r.mu.Lock()
	r.round = step
	r.mu.Unlock()
	return step, nil
}

// GlobalStep reads the shared step counter.
func (r *Replicated) GlobalStep() (int64, error) {
	out, err := r.reps[0].master.Run(nil, []graph.Endpoint{r.reps[0].stepEP}, nil, nil)
	if err != nil {
		return 0, err
	}
	return int64(out[0].IntAt(0)), nil
}

// NumReplicas returns the worker-task count n.
func (r *Replicated) NumReplicas() int { return len(r.reps) }

// feedMap resolves named feeds against a replica's inputs.
func (rep *replica) feedMap(feeds map[string]*tf.Tensor) (map[graph.Endpoint]*tf.Tensor, error) {
	if len(feeds) == 0 {
		return nil, nil
	}
	out := make(map[graph.Endpoint]*tf.Tensor, len(feeds))
	for name, t := range feeds {
		in, ok := rep.model.Inputs[name]
		if !ok {
			return nil, fmt.Errorf("train: model has no input %q", name)
		}
		out[in.Unwrap()] = t
	}
	return out, nil
}

// TrainStep runs one training step on worker wi's replica and returns the
// replica's loss. Async mode computes and applies gradients in one
// distributed step (Figure 4a). Sync mode computes gradients against the
// current parameter version, pushes them to the aggregators tagged with the
// current round, and blocks until the round applies — which happens as
// soon as m of the n replicas have contributed, so a straggler (or a
// crashed worker) does not hold up the step (Figure 4c); its late gradients
// are discarded as stale.
func (r *Replicated) TrainStep(wi int, feeds map[string]*tf.Tensor) (float64, error) {
	rep := r.reps[wi]
	f, err := rep.feedMap(feeds)
	if err != nil {
		return 0, err
	}

	if !r.opts.Sync {
		// The step counter only needs to come back to the client to key
		// checkpoints; without a prefix, skip the extra cross-task fetch
		// on the hot path.
		fetches := []graph.Endpoint{rep.lossEP}
		if r.opts.CheckpointPrefix != "" {
			fetches = append(fetches, rep.stepEP)
		}
		out, err := rep.master.Run(f, fetches, rep.trainTargets, nil)
		if err != nil {
			return 0, err
		}
		if len(out) > 1 {
			r.maybeSave(int64(out[1].IntAt(0)))
		}
		return out[0].FloatAt(0), nil
	}

	r.mu.Lock()
	round, terr := r.round, r.err
	r.mu.Unlock()
	if terr != nil {
		return 0, terr
	}
	if f == nil {
		f = map[graph.Endpoint]*tf.Tensor{}
	}
	f[rep.roundEP] = tf.FromInt64s(tf.Shape{}, []int64{round})
	out, err := rep.master.Run(f, []graph.Endpoint{rep.lossEP, rep.pushEP}, nil, r.quit)
	if err != nil {
		if terr := r.terminal(); terr != nil {
			return 0, terr
		}
		// The replica's step — its gradients or its push — failed past its
		// retry budget. Backup workers absorb up to Backups failed replicas
		// (§4.4); once fewer than m remain failing-free, no round can ever
		// complete (a dead shard included), so fail the trainer instead of
		// leaving the survivors blocked in the barrier forever. The mark is
		// cleared when the replica steps successfully again, so a transient
		// outage on one replica does not combine with a later one elsewhere
		// into a spurious whole-trainer kill.
		r.markFailing(wi, err)
		return 0, err
	}
	applied := int64(out[1].IntAt(0))
	r.mu.Lock()
	delete(r.dead, wi) // the replica recovered
	if applied+1 > r.round {
		r.round = applied + 1
	}
	r.mu.Unlock()
	r.maybeSave(applied + 1)
	return out[0].FloatAt(0), nil
}

// markFailing counts replica wi against the backup budget, failing the
// trainer once more replicas are failing than backups can cover.
func (r *Replicated) markFailing(wi int, err error) {
	r.mu.Lock()
	r.dead[wi] = true
	deadNow := len(r.dead)
	r.mu.Unlock()
	if deadNow > r.opts.Backups {
		r.fail(fmt.Errorf("train: %d replicas failing with %d backup workers (last, replica %d): %w",
			deadNow, r.opts.Backups, wi, err))
	}
}

func (r *Replicated) terminal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// fail records the trainer's terminal error and ends the steps of the
// workers blocked in their pushes (quit).
func (r *Replicated) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.quitOnce.Do(func() { close(r.quit) })
}

// maybeSave checkpoints every PS shard when the global step has advanced
// CheckpointEvery past the last save. Failures do not stop training; they
// surface through SaveErr.
func (r *Replicated) maybeSave(step int64) {
	if r.opts.CheckpointPrefix == "" {
		return
	}
	r.saveMu.Lock()
	if step < r.lastSaved+int64(r.opts.CheckpointEvery) {
		r.saveMu.Unlock()
		return
	}
	r.lastSaved = step
	r.saveMu.Unlock()
	if err := r.saveShards(step); err != nil {
		r.saveMu.Lock()
		r.saveErr = err
		r.saveMu.Unlock()
	}
}

// SaveNow checkpoints every PS shard at the current global step. It needs a
// CheckpointPrefix: without one there is nowhere to write.
func (r *Replicated) SaveNow() error {
	if r.opts.CheckpointPrefix == "" {
		return fmt.Errorf("train: SaveNow needs a CheckpointPrefix in ReplicatedOptions")
	}
	step, err := r.GlobalStep()
	if err != nil {
		return err
	}
	r.saveMu.Lock()
	r.lastSaved = step
	r.saveMu.Unlock()
	return r.saveShards(step)
}

// saveShards runs each PS task's Save as a step of its own, so a dead shard
// fails only its own save, and applies retention to the shard's files. A
// task the resolver cannot reach fails at once, not through the master's
// step retries, so a dead shard does not hold up the saves of the live ones
// (or, from maybeSave, the training step that triggered them); the restarted
// task restores from its last good file.
func (r *Replicated) saveShards(step int64) error {
	var firstErr error
	for _, sv := range r.saves {
		_, err := r.opts.Resolver(sv.task)
		if err == nil {
			file := tf.ScalarString(fmt.Sprintf("%s-%d", sv.shard, step))
			_, err = r.reps[0].master.Run(map[graph.Endpoint]*tf.Tensor{sv.file: file}, nil, []*graph.Node{sv.op}, nil)
		}
		if err == nil {
			err = checkpoint.Retention(sv.shard, r.opts.KeepCheckpoints)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("train: checkpointing %s: %w", sv.task, err)
		}
	}
	return firstErr
}

// SaveErr returns the most recent background checkpoint failure, if any.
func (r *Replicated) SaveErr() error {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	return r.saveErr
}

// Close ends the steps of workers waiting in their pushes. It does not touch the PS
// state, which outlives the trainer (§4.3).
func (r *Replicated) Close() { r.fail(fmt.Errorf("train: replicated trainer closed")) }
