// Package serving implements the inference tier over frozen graphs (§2,
// §7: the dataflow representation "is used for inference at scale"): a
// versioned on-disk model format, a model registry with hot reload, an
// adaptive micro-batcher that stacks concurrent predict requests into one
// pooled-executor step, and the HTTP/JSON codec used by cmd/tfserve.
package serving

import (
	"encoding/json"
	"fmt"

	"repro/internal/tensor"
)

// TensorSpec names one input or output of a predict signature.
type TensorSpec struct {
	// Alias is the client-facing name used in predict requests.
	Alias string `json:"alias"`
	// Ref is the frozen-graph endpoint, "node:index".
	Ref string `json:"ref"`
	// DType is the element type ("float32", "int64", ...).
	DType string `json:"dtype"`
	// Shape is the static shape; -1 marks an unknown dimension. For a
	// batchable signature dimension 0 is the batch.
	Shape []int `json:"shape"`
}

// Signature is the predict interface of a frozen model: what to feed,
// what to fetch, and whether requests may be stacked along axis 0.
type Signature struct {
	Name    string       `json:"name"`
	Inputs  []TensorSpec `json:"inputs"`
	Outputs []TensorSpec `json:"outputs"`
	// Batchable reports that every input and output carries a leading batch
	// dimension, so the server may concatenate concurrent requests along
	// axis 0 and split the fetched rows back per caller.
	Batchable bool `json:"batchable"`
}

// MarshalSignature renders the signature as indented JSON (the on-disk
// form, signature.json).
func MarshalSignature(sig Signature) ([]byte, error) {
	return json.MarshalIndent(sig, "", "  ")
}

// UnmarshalSignature parses signature.json and validates it.
func UnmarshalSignature(data []byte) (Signature, error) {
	var sig Signature
	if err := json.Unmarshal(data, &sig); err != nil {
		return Signature{}, fmt.Errorf("serving: bad signature: %w", err)
	}
	if err := validateSignature(sig); err != nil {
		return Signature{}, err
	}
	return sig, nil
}

func validateSignature(sig Signature) error {
	if len(sig.Inputs) == 0 || len(sig.Outputs) == 0 {
		return fmt.Errorf("serving: signature %q needs at least one input and one output", sig.Name)
	}
	seen := map[string]bool{}
	for _, specs := range [][]TensorSpec{sig.Inputs, sig.Outputs} {
		for _, ts := range specs {
			if ts.Alias == "" {
				return fmt.Errorf("serving: signature %q has a spec with no alias", sig.Name)
			}
			if seen[ts.Alias] {
				return fmt.Errorf("serving: signature %q reuses alias %q", sig.Name, ts.Alias)
			}
			seen[ts.Alias] = true
			if _, err := tensor.ParseDType(ts.DType); err != nil {
				return fmt.Errorf("serving: signature %q alias %q: %w", sig.Name, ts.Alias, err)
			}
		}
	}
	return nil
}
