package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// Predict wire format (cmd/tfserve):
//
//	POST /v1/models/<name>:predict
//	{"inputs": {"x": {"shape": [2, 4], "values": [1, 2, 3, ...]}}}
//
// Values are flat, row-major, and typed by the model's signature — the
// request never names a dtype, so a client cannot disagree with the model
// about one. The response mirrors the shape:
//
//	{"model": "...", "version": 3,
//	 "outputs": {"y": {"dtype": "float32", "shape": [2, 3], "values": [...]}}}

// maxRequestElements bounds the total element count of any one request
// tensor, so a hostile shape cannot make the decoder allocate gigabytes.
const maxRequestElements = 1 << 22

// RawTensor is one not-yet-typed tensor in a predict request.
type RawTensor struct {
	Shape []int `json:"shape"`
	// Values is where a caller building a request by hand puts the flat
	// elements (numbers, bools or strings). A decoded request leaves it nil
	// and keeps them as text: only Bind knows the dtype each literal is to
	// become, so nothing is boxed on the way there.
	Values []any `json:"values"`

	text  []byte // the values array as JSON text that encoding/json validated
	count int    // its top-level elements
}

// PredictRequest is a decoded predict call, inputs keyed by signature
// alias.
type PredictRequest struct {
	Inputs map[string]RawTensor `json:"inputs"`
}

// ParsePredictRequest decodes and validates the predict JSON body. Shapes
// must be non-negative, small enough to allocate, and consistent with the
// flat value count; anything else is a client error, never a panic.
func ParsePredictRequest(data []byte) (*PredictRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serving: bad predict request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("serving: bad predict request: data after the request object")
	}
	if len(req.Inputs) == 0 {
		return nil, fmt.Errorf("serving: predict request has no inputs")
	}
	for alias, rt := range req.Inputs {
		if _, err := checkRawShape(rt.Shape, rt.count); err != nil {
			return nil, fmt.Errorf("serving: input %q: %w", alias, err)
		}
	}
	return &req, nil
}

// UnmarshalJSON keeps the values array as text and counts its elements.
// encoding/json has already framed and validated data, so the object is
// walked, not decoded again — by encoding/json's rules for a struct: names
// match exactly or case-folded, the last duplicate wins, null resets, an
// unknown member is an error.
func (rt *RawTensor) UnmarshalJSON(data []byte) error {
	*rt = RawTensor{}
	if string(data) == "null" {
		return nil
	}
	if len(data) == 0 || data[0] != '{' {
		return fmt.Errorf("want a tensor object, got %.20q", data)
	}
	for at := 1; ; {
		var name, val []byte
		var commas int
		if name, at, _ = nextLiteral(data, at); len(name) == 0 {
			return nil
		}
		val, at, commas = nextLiteral(data, at)
		var key string
		if err := json.Unmarshal(name, &key); err != nil {
			return err
		}
		switch isValues := strings.EqualFold(key, "values"); {
		case strings.EqualFold(key, "shape"):
			if err := json.Unmarshal(val, &rt.Shape); err != nil {
				return err
			}
		case isValues && string(val) == "null":
			rt.text, rt.count = nil, 0
		case isValues && len(val) > 0 && val[0] == '[':
			rt.text, rt.count = append([]byte(nil), val...), 0 // data is the decoder's buffer
			if first, _, _ := nextLiteral(val, 1); len(first) > 0 {
				rt.count = commas + 1
			}
		default:
			return fmt.Errorf("unknown or mistyped field %q: %.20q", key, val)
		}
	}
}

// nextLiteral returns the literal of a syntactically valid JSON array or
// object that begins at text[i] — just past the opening bracket or the last
// separator — and the index to continue from: an array yields its elements,
// an object its names and values in turn; the literal is empty at the closing
// bracket. commas counts the separators one level inside the literal: an
// array with n of them holds n+1 elements, unless it is empty.
func nextLiteral(text []byte, i int) (lit []byte, next, commas int) {
	start, depth := i, 0
	for ; i < len(text); i++ {
		if !structural[text[i]] {
			continue
		}
		switch text[i] {
		case '"':
			for i++; i < len(text) && text[i] != '"'; i++ {
				if text[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 { // text's own closing bracket: the next call stops on it too
				return bytes.TrimSpace(text[start:i]), i, commas
			}
			depth--
		case ',', ':':
			if depth == 0 {
				return bytes.TrimSpace(text[start:i]), i + 1, commas
			} else if depth == 1 && text[i] == ',' {
				commas++
			}
		}
	}
	return nil, len(text), commas
}

// structural marks the bytes nextLiteral acts on; the rest it steps over.
var structural = [256]bool{'"': true, '[': true, ']': true, '{': true, '}': true, ',': true, ':': true}

// checkRawShape validates a raw tensor's shape against its value count and
// returns the element count.
func checkRawShape(shape []int, count int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, fmt.Errorf("negative dimension %d in shape %v", d, shape)
		}
		if d > 0 && n > maxRequestElements/d {
			return 0, fmt.Errorf("shape %v is too large (max %d elements)", shape, maxRequestElements)
		}
		n *= d
	}
	if n != count {
		return 0, fmt.Errorf("shape %v wants %d values, got %d", shape, n, count)
	}
	return n, nil
}

// Bind types a raw tensor against a signature spec, producing the dense
// tensor the executor feeds.
func (rt RawTensor) Bind(spec TensorSpec) (*tensor.Tensor, error) {
	text, count := rt.text, rt.count
	if rt.Values != nil { // built by hand: its literals are what it marshals to
		var err error
		if text, err = json.Marshal(rt.Values); err != nil {
			return nil, fmt.Errorf("serving: input %q: %w", spec.Alias, err)
		}
		count = len(rt.Values)
	}
	n, err := checkRawShape(rt.Shape, count)
	if err != nil {
		return nil, fmt.Errorf("serving: input %q: %w", spec.Alias, err)
	}
	// Validate against the signature here, so a bad shape is a client
	// error at the HTTP edge rather than a failure inside the model. A -1
	// spec dimension (the batch, or any unknown dim) accepts anything.
	if len(spec.Shape) > 0 {
		if len(rt.Shape) != len(spec.Shape) {
			return nil, fmt.Errorf("serving: input %q wants rank %d (shape %v), got shape %v",
				spec.Alias, len(spec.Shape), spec.Shape, rt.Shape)
		}
		for d, want := range spec.Shape {
			if want >= 0 && rt.Shape[d] != want {
				return nil, fmt.Errorf("serving: input %q dim %d wants %d, got shape %v",
					spec.Alias, d, want, rt.Shape)
			}
		}
	}
	dt, err := tensor.ParseDType(spec.DType)
	if err != nil {
		return nil, err
	}
	t := tensor.New(dt, tensor.Shape(rt.Shape))
	for i, at := 0, 1; i < n; i++ {
		var lit []byte
		lit, at, _ = nextLiteral(text, at)
		if err := setElement(t, dt, i, lit); err != nil {
			return nil, fmt.Errorf("serving: input %q value %d: %w", spec.Alias, i, err)
		}
	}
	return t, nil
}

// setElement reads one JSON literal into element i of t's typed buffer.
func setElement(t *tensor.Tensor, dt tensor.DType, i int, lit []byte) error {
	switch numeric := dt != tensor.Bool && dt != tensor.String; {
	case numeric && (len(lit) == 0 || lit[0] != '-' && (lit[0] < '0' || lit[0] > '9')):
		return fmt.Errorf("want a number, got %.20q", lit)
	case dt == tensor.Float32 || dt == tensor.Float64:
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return err
		}
		t.SetFloat(i, f)
	case dt == tensor.Int32 || dt == tensor.Int64:
		x, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return err
		}
		if dt == tensor.Int32 {
			if int64(int32(x)) != x {
				return fmt.Errorf("%d overflows int32", x)
			}
			t.Int32s()[i] = int32(x)
		} else {
			t.Int64s()[i] = x
		}
	case dt == tensor.Bool:
		if s := string(lit); s != "true" && s != "false" {
			return fmt.Errorf("want a bool, got %.20q", lit)
		}
		t.Bools()[i] = lit[0] == 't'
	case dt == tensor.String:
		if len(lit) == 0 || lit[0] != '"' {
			return fmt.Errorf("want a string, got %.20q", lit)
		}
		return json.Unmarshal(lit, &t.Strings()[i])
	default:
		return fmt.Errorf("unsupported dtype %v", dt)
	}
	return nil
}

// RespTensor is one output tensor in a predict response.
type RespTensor struct {
	DType  string `json:"dtype"`
	Shape  []int  `json:"shape"`
	Values []any  `json:"values"`
}

// PredictResponse is the predict reply body.
type PredictResponse struct {
	Model   string                `json:"model"`
	Version int64                 `json:"version"`
	Outputs map[string]RespTensor `json:"outputs"`
}

// EncodeTensor renders a dense tensor as a response tensor.
func EncodeTensor(t *tensor.Tensor) RespTensor {
	vals := make([]any, t.NumElements())
	switch t.DType() {
	case tensor.Float32:
		box(vals, t.Float32s())
	case tensor.Float64:
		box(vals, t.Float64s())
	case tensor.Int32:
		box(vals, t.Int32s())
	case tensor.Int64:
		box(vals, t.Int64s())
	case tensor.Bool:
		box(vals, t.Bools())
	case tensor.String:
		box(vals, t.Strings())
	}
	return RespTensor{
		DType:  t.DType().String(),
		Shape:  append([]int(nil), t.Shape()...),
		Values: vals,
	}
}

func box[T any](dst []any, src []T) {
	for i, v := range src {
		dst[i] = v
	}
}
