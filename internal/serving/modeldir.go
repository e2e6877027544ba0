package serving

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// On-disk model layout, one directory per model with integer version
// subdirectories (highest version serves), in the style of the reference
// serving system:
//
//	<root>/<model-name>/<version>/graph.bin       frozen graph (graph.Marshal)
//	<root>/<model-name>/<version>/signature.json  predict signature
//
// A version directory is written to a temporary sibling and renamed into
// place, so a scanner never observes a half-written version.

const (
	graphFile     = "graph.bin"
	signatureFile = "signature.json"
)

// maxVersionDigits bounds version directory names; 18 digits always fit in
// an int64, so the parser never has to reason about overflow.
const maxVersionDigits = 18

// ParseVersion parses a model version directory name: a non-empty string of
// ASCII digits, at most 18 characters, denoting a non-negative integer.
// Signs, spaces, leading zeros beyond the canonical form and non-digit
// characters are all rejected, so every valid name has exactly one value
// and every value exactly one canonical name (FormatVersion).
func ParseVersion(name string) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("serving: empty version")
	}
	if len(name) > maxVersionDigits {
		return 0, fmt.Errorf("serving: version %q is too long", name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return 0, fmt.Errorf("serving: version %q is not a decimal integer", name)
		}
	}
	if len(name) > 1 && name[0] == '0' {
		return 0, fmt.Errorf("serving: version %q has a leading zero", name)
	}
	v, err := strconv.ParseInt(name, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serving: version %q: %w", name, err)
	}
	return v, nil
}

// FormatVersion renders a version as its canonical directory name.
func FormatVersion(v int64) string { return strconv.FormatInt(v, 10) }

// Freeze builds the frozen predict graph of a trained graph (§2, §7): its
// variables become Consts holding values (resource name → tensor, from a
// live session's snapshot or a checkpoint), the graph is pruned to the
// signature, and the compile-time pass pipeline runs over the result unless
// optimize is false. sig names each input and output by Alias and by Ref, a
// "node:index" endpoint of g; the returned signature refers to the frozen
// graph and carries each endpoint's dtype and static shape. A batchable
// signature relaxes dimension 0 of every input to -1.
func Freeze(g *graph.Graph, values map[string]*tensor.Tensor, sig Signature, optimize bool) (*graph.Graph, Signature, error) {
	spec := graph.FreezeSpec{Values: values}
	resolve := func(ts TensorSpec) (graph.Endpoint, error) {
		ep, err := g.ParseEndpoint(ts.Ref)
		if err != nil {
			return ep, fmt.Errorf("serving: freeze %q: %w", ts.Alias, err)
		}
		return ep, nil
	}
	for _, in := range sig.Inputs {
		ep, err := resolve(in)
		if err != nil {
			return nil, Signature{}, err
		}
		spec.Feeds = append(spec.Feeds, ep)
		if sig.Batchable {
			shape := ep.Shape().Clone()
			if shape.Rank() == 0 {
				return nil, Signature{}, fmt.Errorf("serving: freeze input %q is a scalar; a batchable signature needs a leading batch dimension", in.Alias)
			}
			shape[0] = -1
			spec.FeedShapes = append(spec.FeedShapes, shape)
		}
	}
	for _, out := range sig.Outputs {
		ep, err := resolve(out)
		if err != nil {
			return nil, Signature{}, err
		}
		spec.Fetches = append(spec.Fetches, ep)
	}
	fz, err := graph.Freeze(g, spec)
	if err != nil {
		return nil, Signature{}, err
	}
	if optimize {
		// The pipeline a serving session would otherwise run at load time;
		// running it at export means every replica serves the fused graph.
		res, err := graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{}).Run(fz.Graph)
		if err != nil {
			return nil, Signature{}, fmt.Errorf("serving: optimizing frozen graph: %w", err)
		}
		for i, f := range fz.Fetches {
			fz.Fetches[i] = graph.Remap(res.Replaced, f)
		}
	}
	frozen := Signature{Name: sig.Name, Batchable: sig.Batchable}
	specOf := func(alias string, ep graph.Endpoint) TensorSpec {
		return TensorSpec{Alias: alias, Ref: ep.String(), DType: ep.DType().String(), Shape: append([]int(nil), ep.Shape()...)}
	}
	for i, in := range sig.Inputs {
		frozen.Inputs = append(frozen.Inputs, specOf(in.Alias, fz.Feeds[i]))
	}
	for i, out := range sig.Outputs {
		frozen.Outputs = append(frozen.Outputs, specOf(out.Alias, fz.Fetches[i]))
	}
	return fz.Graph, frozen, nil
}

// WriteModel exports a frozen graph and its signature as one version of a
// model: <root>/<name>/<version>/. The version directory appears
// atomically (temp dir + rename) and must not already exist.
func WriteModel(root, name string, version int64, g *graph.Graph, sig Signature) error {
	if version < 0 {
		return fmt.Errorf("serving: negative model version %d", version)
	}
	if err := validateSignature(sig); err != nil {
		return err
	}
	data, err := g.Marshal()
	if err != nil {
		return fmt.Errorf("serving: serializing frozen graph: %w", err)
	}
	sigData, err := MarshalSignature(sig)
	if err != nil {
		return fmt.Errorf("serving: serializing signature: %w", err)
	}
	modelDir := filepath.Join(root, name)
	final := filepath.Join(modelDir, FormatVersion(version))
	if _, err := os.Stat(final); err == nil {
		return fmt.Errorf("serving: model %s version %d already exists", name, version)
	}
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(modelDir, ".tmp-version-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := os.WriteFile(filepath.Join(tmp, graphFile), data, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, signatureFile), sigData, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// ReadModel loads one version directory: the frozen graph and signature.
func ReadModel(versionDir string) (*graph.Graph, Signature, error) {
	data, err := os.ReadFile(filepath.Join(versionDir, graphFile))
	if err != nil {
		return nil, Signature{}, fmt.Errorf("serving: %w", err)
	}
	g, err := graph.Unmarshal(data)
	if err != nil {
		return nil, Signature{}, fmt.Errorf("serving: %s: %w", versionDir, err)
	}
	sigData, err := os.ReadFile(filepath.Join(versionDir, signatureFile))
	if err != nil {
		return nil, Signature{}, fmt.Errorf("serving: %w", err)
	}
	sig, err := UnmarshalSignature(sigData)
	if err != nil {
		return nil, Signature{}, fmt.Errorf("serving: %s: %w", versionDir, err)
	}
	return g, sig, nil
}

// Versions lists the valid version numbers under one model directory in
// ascending order. Entries that are not canonical version names (temp
// directories, stray files) are skipped.
func Versions(modelDir string) ([]int64, error) {
	entries, err := os.ReadDir(modelDir)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		v, err := ParseVersion(e.Name())
		if err != nil {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// LatestVersion returns the highest version under a model directory.
func LatestVersion(modelDir string) (int64, error) {
	vs, err := Versions(modelDir)
	if err != nil {
		return 0, err
	}
	if len(vs) == 0 {
		return 0, fmt.Errorf("serving: %s has no valid version directories", modelDir)
	}
	return vs[len(vs)-1], nil
}

// ScanModels lists the model names under a serving root: every
// subdirectory holding at least one valid version.
func ScanModels(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		vs, err := Versions(filepath.Join(root, e.Name()))
		if err != nil || len(vs) == 0 {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
