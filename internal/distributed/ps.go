package distributed

import (
	"fmt"

	"repro/internal/checkpoint"
)

// This file is the parameter-server side of fault tolerance (§4.3): the
// client checkpoints each task's shard of the model state by running that
// task's Save op (one Save per task, as in the reference system), and a
// restarted task restores its shard from the newest checkpoint before
// serving again. Shards are saved independently, so no coordination is
// needed between them; the paper's weak-consistency argument covers the
// staleness between a shard's last checkpoint and the crash.

// ShardPrefix derives the per-task checkpoint prefix from a cluster-wide
// prefix, e.g. ("ckpt/model", "/job:ps/task:1") → "ckpt/model.ps-1".
// Checkpoint files are then "<shard prefix>-<step>". The job/task suffix
// keeps shards of different tasks from colliding in one directory while
// remaining distinguishable from the step suffix.
func ShardPrefix(prefix, task string) (string, error) {
	job, idx, err := ParseTask(task)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s.%s-%d", prefix, job, idx), nil
}

// RestoreShard loads this task's newest shard checkpoint (if any) into the
// device's resource manager, recreating and assigning each saved variable.
// It returns the restored step, or ok=false when no checkpoint exists — the
// caller then relies on the client to re-initialize. §4.3 has the client
// restore the latest checkpoint when it starts up; a restarted task does
// the same for its shard.
func (w *Worker) RestoreShard(prefix string) (step int64, ok bool, err error) {
	shard, err := ShardPrefix(prefix, w.task)
	if err != nil {
		return 0, false, err
	}
	path, step, err := checkpoint.LatestStep(shard)
	if err != nil || path == "" {
		return 0, false, err
	}
	tensors, err := checkpoint.Read(path)
	if err != nil {
		return 0, false, fmt.Errorf("distributed: %s: restoring %s: %w", w.task, path, err)
	}
	res := w.dev.Resources()
	for name, t := range tensors {
		v := res.FindOrCreateVariable(name, t.DType(), t.Shape())
		if err := v.Assign(t); err != nil {
			return 0, false, fmt.Errorf("distributed: %s: restoring %q: %w", w.task, name, err)
		}
	}
	return step, true, nil
}

// PSOptions configures a parameter-server task.
type PSOptions struct {
	// CheckpointPrefix enables shard restore on start: the prefix the
	// cluster's trainer saves this task's shard under. Empty disables.
	CheckpointPrefix string
}

// PS is one running parameter-server task: a Worker serving over TCP whose
// variable shard survives restarts through per-task checkpoints. Creating a
// PS for a task that crashed restores the newest shard checkpoint before
// the listener accepts work, so retried steps observe the recovered state.
type PS struct {
	Worker *Worker
	Server *Server
	// RestoredStep is the checkpointed step the shard was restored from;
	// -1 when the task started fresh.
	RestoredStep int64
}

// NewPS starts a parameter-server task for job/index, serving on the task's
// address from the cluster spec.
func NewPS(spec ClusterSpec, job string, index int, resolver Resolver, opts PSOptions) (*PS, error) {
	addr, err := spec.Address(job, index)
	if err != nil {
		return nil, err
	}
	w := NewWorker(job, index, resolver)
	ps := &PS{Worker: w, RestoredStep: -1}
	if opts.CheckpointPrefix != "" {
		step, ok, err := w.RestoreShard(opts.CheckpointPrefix)
		if err != nil {
			return nil, err
		}
		if ok {
			ps.RestoredStep = step
		}
	}
	srv, err := Serve(w, addr)
	if err != nil {
		return nil, err
	}
	ps.Server = srv
	return ps, nil
}

// Close stops the task.
func (p *PS) Close() error { return p.Server.Close() }
