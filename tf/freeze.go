package tf

import (
	"fmt"

	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/serving"
)

// Freezing is the export half of the deployment story (§2, §7): a trained
// graph is reduced to a pure predict function — variables folded into
// Consts holding their trained values, the graph pruned to one named
// signature of feeds and fetches, the compile-time optimization pipeline
// run over the result — and serialized into a versioned model directory
// that cmd/tfserve serves.

// SigTensor names one input or output of a predict signature.
type SigTensor struct {
	// Alias is the client-facing name ("image", "logits").
	Alias string
	// Output is the graph edge behind it. Inputs need not be placeholders:
	// any edge Session.Run could feed works, e.g. the dequeue output of an
	// input pipeline.
	Output Output
}

// FreezeOptions configures Freeze.
type FreezeOptions struct {
	// SignatureName names the predict signature; default "predict".
	SignatureName string
	// BatchDim relaxes dimension 0 of every input to -1 in the frozen
	// graph and marks the signature batchable, so the serving tier may
	// stack concurrent requests along axis 0. Requires every input (and,
	// at serve time, every output) to carry a leading batch dimension.
	BatchDim bool
	// DisableOptimizations skips the compile-time pass pipeline on the
	// frozen graph (it runs by default, so serving gets fused kernels).
	DisableOptimizations bool
}

// Frozen is an exported-ready model: the frozen graph plus its signature.
type Frozen struct {
	g   *graph.Graph
	sig serving.Signature
}

// Freeze snapshots the session's initialized variables and builds the
// frozen inference graph for the given signature. The session must have
// run the variables' initializers (or restored a checkpoint) first.
func Freeze(sess *Session, inputs, outputs []SigTensor, opts FreezeOptions) (*Frozen, error) {
	if opts.SignatureName == "" {
		opts.SignatureName = "predict"
	}
	if len(inputs) == 0 || len(outputs) == 0 {
		return nil, fmt.Errorf("tf: freeze needs at least one input and one output")
	}
	sig := serving.Signature{Name: opts.SignatureName, Batchable: opts.BatchDim}
	for _, in := range inputs {
		if !in.Output.Valid() {
			return nil, fmt.Errorf("tf: freeze input %q is invalid", in.Alias)
		}
		sig.Inputs = append(sig.Inputs, serving.TensorSpec{Alias: in.Alias, Ref: in.Output.Unwrap().String()})
	}
	for _, out := range outputs {
		if !out.Output.Valid() {
			return nil, fmt.Errorf("tf: freeze output %q is invalid", out.Alias)
		}
		sig.Outputs = append(sig.Outputs, serving.TensorSpec{Alias: out.Alias, Ref: out.Output.Unwrap().String()})
	}
	values := sess.Core().Device().Resources().SnapshotVariables()
	g, sig, err := serving.Freeze(sess.gr.Raw(), values, sig, !opts.DisableOptimizations)
	if err != nil {
		return nil, err
	}
	return &Frozen{g: g, sig: sig}, nil
}

// Graph exposes the frozen graph (tools, tests).
func (f *Frozen) Graph() *graph.Graph { return f.g }

// Signature returns the predict signature.
func (f *Frozen) Signature() serving.Signature { return f.sig }

// Export writes the frozen model as <root>/<name>/<version>/ in the
// serving layout. The version directory appears atomically, so a serving
// process polling the root can never load a half-written model.
func (f *Frozen) Export(root, name string, version int64) error {
	return serving.WriteModel(root, name, version, f.g, f.sig)
}

// Session returns a local session over the frozen graph, with the feed and
// fetch Outputs rebound to it — the in-process way to run a frozen model
// (tests, batch jobs); network serving goes through internal/serving.
func (f *Frozen) Session() (*Session, map[string]Output, error) {
	gr := &Graph{g: f.g, b: build.New(f.g), st: &graphState{}}
	outs := make(map[string]Output, len(f.sig.Inputs)+len(f.sig.Outputs))
	for _, specs := range [][]serving.TensorSpec{f.sig.Inputs, f.sig.Outputs} {
		for _, ts := range specs {
			ep, err := f.g.ParseEndpoint(ts.Ref)
			if err != nil {
				return nil, nil, fmt.Errorf("tf: frozen signature %q: %w", ts.Alias, err)
			}
			outs[ts.Alias] = Output{ep: ep, g: gr}
		}
	}
	// The graph was optimized at export; the session skips the pipeline.
	s, err := NewSession(gr, SessionOptions{DisableOptimizations: true})
	if err != nil {
		return nil, nil, err
	}
	return s, outs, nil
}
