package serving

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// ModelOptions configures how one loaded model version executes.
type ModelOptions struct {
	// MaxBatch caps the rows stacked into one batched step. Values <= 1
	// disable micro-batching.
	MaxBatch int
	// Window caps how long a request may queue while every executor slot is
	// busy; its batch dispatches anyway when it expires. It is never a wait:
	// with a slot free a request runs at once. 0 disables micro-batching.
	Window time.Duration
}

// Model is one loaded version of a frozen model: the graph, a session whose
// pooled executor runs the predict steps, and (for batchable signatures) an
// adaptive micro-batcher. A Model is immutable after load and safe for
// concurrent Predict calls — concurrent requests execute as concurrent
// steps of one session (§3.2), or are stacked by the batcher.
type Model struct {
	Name    string
	Version int64
	Sig     Signature

	g       *graph.Graph
	sess    *core.Session
	feeds   []graph.Endpoint
	fetches []graph.Endpoint
	batcher *batcher
}

// NewModel wraps an already-loaded frozen graph. The graph is assumed
// optimized at export time, so the session skips the compile-time pipeline.
func NewModel(name string, version int64, g *graph.Graph, sig Signature, opts ModelOptions) (*Model, error) {
	if err := validateSignature(sig); err != nil {
		return nil, err
	}
	m := &Model{
		Name:    name,
		Version: version,
		Sig:     sig,
		g:       g,
		sess:    core.NewSession(g, core.Options{Optimize: false}),
	}
	for _, ts := range sig.Inputs {
		ep, err := g.ParseEndpoint(ts.Ref)
		if err != nil {
			return nil, fmt.Errorf("serving: signature %q input %q: %w", sig.Name, ts.Alias, err)
		}
		m.feeds = append(m.feeds, ep)
	}
	for _, ts := range sig.Outputs {
		ep, err := g.ParseEndpoint(ts.Ref)
		if err != nil {
			return nil, fmt.Errorf("serving: signature %q output %q: %w", sig.Name, ts.Alias, err)
		}
		m.fetches = append(m.fetches, ep)
	}
	if sig.Batchable && opts.MaxBatch > 1 && opts.Window > 0 {
		m.batcher = newBatcher(m.run, opts.MaxBatch, opts.Window)
	}
	return m, nil
}

// LoadModel reads one version directory under <root>/<name>/.
func LoadModel(root, name string, version int64, opts ModelOptions) (*Model, error) {
	dir := filepath.Join(root, name, FormatVersion(version))
	g, sig, err := ReadModel(dir)
	if err != nil {
		return nil, err
	}
	return NewModel(name, version, g, sig, opts)
}

// Batched reports whether the micro-batcher is active for this model.
func (m *Model) Batched() bool { return m.batcher != nil }

// run executes one (possibly stacked) predict step on the pooled executor.
func (m *Model) run(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	feeds := make(map[graph.Endpoint]*tensor.Tensor, len(m.feeds))
	for i, ep := range m.feeds {
		feeds[ep] = inputs[i]
	}
	return m.sess.Run(feeds, m.fetches, nil)
}

// Predict validates the inputs against the signature and executes them,
// through the micro-batcher when one is active. Inputs are positional,
// aligned with Sig.Inputs.
func (m *Model) Predict(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return m.PredictContext(context.Background(), inputs)
}

// PredictContext is Predict under a caller deadline: a request whose
// context expires while queued in the micro-batcher fails with the
// deadline error instead of occupying rows in a batch it no longer wants.
func (m *Model) PredictContext(ctx context.Context, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	rows, err := m.checkInputs(inputs)
	if err != nil {
		return nil, err
	}
	if m.batcher == nil {
		return m.run(inputs)
	}
	return m.batcher.do(ctx, inputs, rows)
}

// checkInputs validates arity, dtype and shape, returning the request's
// batch-row count (1 for non-batchable signatures).
func (m *Model) checkInputs(inputs []*tensor.Tensor) (int, error) {
	if len(inputs) != len(m.Sig.Inputs) {
		return 0, fmt.Errorf("serving: model %s wants %d inputs, got %d", m.Name, len(m.Sig.Inputs), len(inputs))
	}
	rows := 1
	for i, t := range inputs {
		spec := m.Sig.Inputs[i]
		if t == nil {
			return 0, fmt.Errorf("serving: model %s input %q is missing", m.Name, spec.Alias)
		}
		if t.DType().String() != spec.DType {
			return 0, fmt.Errorf("serving: model %s input %q wants dtype %s, got %v", m.Name, spec.Alias, spec.DType, t.DType())
		}
		if len(spec.Shape) > 0 {
			if t.Rank() != len(spec.Shape) {
				return 0, fmt.Errorf("serving: model %s input %q wants rank %d (shape %v), got shape %v",
					m.Name, spec.Alias, len(spec.Shape), spec.Shape, t.Shape())
			}
			for d, want := range spec.Shape {
				if d == 0 && m.Sig.Batchable {
					continue
				}
				if want >= 0 && t.Shape()[d] != want {
					return 0, fmt.Errorf("serving: model %s input %q dim %d wants %d, got shape %v",
						m.Name, spec.Alias, d, want, t.Shape())
				}
			}
		}
		if m.Sig.Batchable {
			if t.Rank() == 0 {
				return 0, fmt.Errorf("serving: model %s input %q must carry a batch dimension", m.Name, spec.Alias)
			}
			if i == 0 {
				rows = t.Shape()[0]
			} else if t.Shape()[0] != rows {
				return 0, fmt.Errorf("serving: model %s inputs disagree on batch size: %q has %d rows, %q has %d",
					m.Name, m.Sig.Inputs[0].Alias, rows, spec.Alias, t.Shape()[0])
			}
		}
	}
	if rows < 1 {
		return 0, fmt.Errorf("serving: model %s got an empty batch", m.Name)
	}
	return rows, nil
}

// Warm runs one single-row predict with zero-filled inputs, compiling the
// executable and touching every kernel before the model starts taking
// traffic. The registry warms a new version before swapping it in.
func (m *Model) Warm() error {
	inputs := make([]*tensor.Tensor, len(m.Sig.Inputs))
	for i, spec := range m.Sig.Inputs {
		dt, err := tensor.ParseDType(spec.DType)
		if err != nil {
			return err
		}
		shape := make(tensor.Shape, len(spec.Shape))
		for d, v := range spec.Shape {
			if v < 0 {
				v = 1
			}
			shape[d] = v
		}
		inputs[i] = tensor.New(dt, shape)
	}
	if _, err := m.run(inputs); err != nil {
		return fmt.Errorf("serving: warming %s v%d: %w", m.Name, m.Version, err)
	}
	return nil
}

// Close stops the batcher and releases the session. The registry only
// closes a model after draining its in-flight requests.
func (m *Model) Close() {
	if m.batcher != nil {
		m.batcher.close()
	}
	m.sess.Close()
}
