package train

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/tf"
)

// Saver builds the user-level checkpointing graph of §4.3: one Save op per
// task connected to every variable, and per-variable Restore→Assign chains.
// Checkpoints are written with no extra synchronization against concurrent
// training steps — acceptable for asynchronous SGD, as the paper argues —
// and retention is a client-side policy.
type Saver struct {
	g        *tf.Graph
	vars     []*tf.Variable
	filename tf.Output
	saveOp   *tf.Operation
	restore  *tf.Operation
	// KeepCheckpoints bounds how many checkpoint files Retain keeps.
	KeepCheckpoints int
}

// NewSaver builds Save/Restore subgraphs over the given variables. The
// checkpoint path is fed through a placeholder so one graph serves every
// step number.
func NewSaver(g *tf.Graph, vars []*tf.Variable) (*Saver, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("train: Saver needs at least one variable")
	}
	filename := g.Placeholder("saver/filename", tf.String, tf.Shape{})
	names := make([]string, len(vars))
	values := make([]tf.Output, len(vars))
	for i, v := range vars {
		names[i] = v.Name()
		values[i] = v.Value()
	}
	// Save(filename, names, tensors...) — one Save per task (§4.3).
	ins := append([]tf.Output{filename, g.Const(names)}, values...)
	saveOp := g.BuildOp("Save", "saver/save", nil, ins...)

	// Restore ops feed Assigns; grouping them yields one restore target.
	var assigns []*tf.Operation
	for i, v := range vars {
		restoreOp := g.BuildOp("Restore", "saver/restore_"+names[i], map[string]any{
			"tensor_name": names[i],
			"dt":          v.DType(),
			"shape_hint":  v.Shape(),
		}, filename)
		assigns = append(assigns, v.Assign(restoreOp.Output(0)))
	}
	restore := g.Group("saver/restore_all", assigns...)
	if err := g.Err(); err != nil {
		return nil, err
	}
	return &Saver{
		g: g, vars: vars, filename: filename,
		saveOp: saveOp, restore: restore,
		KeepCheckpoints: 5,
	}, nil
}

// Save writes the current variable values to path.
func (s *Saver) Save(sess *tf.Session, path string) error {
	_, err := sess.Run(map[tf.Output]*tf.Tensor{s.filename: tf.ScalarString(path)}, nil, s.saveOp)
	return err
}

// SaveStep writes prefix-<step> and applies the retention policy.
func (s *Saver) SaveStep(sess *tf.Session, prefix string, step int) (string, error) {
	path := fmt.Sprintf("%s-%d", prefix, step)
	if err := s.Save(sess, path); err != nil {
		return "", err
	}
	if s.KeepCheckpoints > 0 {
		if err := checkpoint.Retention(prefix, s.KeepCheckpoints); err != nil {
			return path, err
		}
	}
	return path, nil
}

// Restore loads variable values from path.
func (s *Saver) Restore(sess *tf.Session, path string) error {
	_, err := sess.Run(map[tf.Output]*tf.Tensor{s.filename: tf.ScalarString(path)}, nil, s.restore)
	return err
}

// RestoreLatest loads the newest prefix-<step> checkpoint, returning false
// when none exists (the caller then runs the initializer instead, §4.3:
// "when the client starts up, it attempts to Restore the latest
// checkpoint").
func (s *Saver) RestoreLatest(sess *tf.Session, prefix string) (bool, error) {
	latest, _, err := checkpoint.LatestStep(prefix)
	if err != nil || latest == "" {
		return false, err
	}
	if err := s.Restore(sess, latest); err != nil {
		return false, err
	}
	return true, nil
}
