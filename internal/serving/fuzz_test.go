package serving

// Native fuzz targets over the two parsers that face untrusted bytes: the
// predict request body (network input) and model version directory names
// (filesystem input — an operator or a buggy exporter can drop anything
// into the model root). Seed corpora live in testdata/fuzz/; scripts/ci.sh
// runs each target for a few seconds as a smoke gate, and longer runs are
//
//	go test ./internal/serving -fuzz FuzzPredictRequest -fuzztime 60s
//
// The invariant in both cases is the serving tier's front-door contract:
// arbitrary input produces an error or a valid value, never a panic, a
// huge allocation, or a value that violates the parser's own postconditions.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// refTensor and the two functions below are the predict decoder as it was
// before request values stopped being boxed: encoding/json fills a []any with
// one json.Number, bool or string per element and a type switch binds them.
// FuzzPredictRequest holds the text-retaining decoder to it, input by input.
type refTensor struct {
	Shape  []int `json:"shape"`
	Values []any `json:"values"`
}

func refParse(data []byte) (map[string]refTensor, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req struct {
		Inputs map[string]refTensor `json:"inputs"`
	}
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	// The one rule the reference did not have: nothing may follow the object.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data")
	}
	if len(req.Inputs) == 0 {
		return nil, fmt.Errorf("no inputs")
	}
	for _, rt := range req.Inputs {
		if _, err := checkRawShape(rt.Shape, len(rt.Values)); err != nil {
			return nil, err
		}
	}
	return req.Inputs, nil
}

func refBind(rt refTensor, dt tensor.DType) (*tensor.Tensor, error) {
	t := tensor.New(dt, tensor.Shape(rt.Shape))
	for i, v := range rt.Values {
		switch dt {
		case tensor.Float32, tensor.Float64:
			num, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("want a number, got %T", v)
			}
			f, err := num.Float64()
			if err != nil {
				return nil, err
			}
			t.SetFloat(i, f)
		case tensor.Int32, tensor.Int64:
			num, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("want a number, got %T", v)
			}
			x, err := num.Int64()
			if err != nil {
				return nil, err
			}
			if dt == tensor.Int32 && int64(int32(x)) != x {
				return nil, fmt.Errorf("%d overflows int32", x)
			}
			if dt == tensor.Int32 {
				t.Int32s()[i] = int32(x)
			} else {
				t.Int64s()[i] = x
			}
		case tensor.Bool:
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("want a bool, got %T", v)
			}
			t.Bools()[i] = b
		case tensor.String:
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("want a string, got %T", v)
			}
			t.Strings()[i] = s
		}
	}
	return t, nil
}

// sameBits reports whether two tensors of one dtype hold the same elements;
// floats compare by bit pattern, so -0 and 0 differ.
func sameBits(a, b *tensor.Tensor) bool {
	if a.DType() != b.DType() || !a.Shape().Equal(b.Shape()) {
		return false
	}
	switch a.DType() {
	case tensor.Float32:
		for i, v := range a.Float32s() {
			if math.Float32bits(v) != math.Float32bits(b.Float32s()[i]) {
				return false
			}
		}
	case tensor.Float64:
		for i, v := range a.Float64s() {
			if math.Float64bits(v) != math.Float64bits(b.Float64s()[i]) {
				return false
			}
		}
	case tensor.Int32:
		return reflect.DeepEqual(a.Int32s(), b.Int32s())
	case tensor.Int64:
		return reflect.DeepEqual(a.Int64s(), b.Int64s())
	case tensor.Bool:
		return reflect.DeepEqual(a.Bools(), b.Bools())
	case tensor.String:
		return reflect.DeepEqual(a.Strings(), b.Strings())
	}
	return true
}

func FuzzPredictRequest(f *testing.F) {
	seeds := []string{
		`{"inputs": {"x": {"shape": [2, 4], "values": [1,1,1,1,2,2,2,2]}}}`,
		`{"inputs": {"x": {"shape": [1], "values": [3.5]}, "mask": {"shape": [2], "values": [true, false]}}}`,
		`{"inputs": {"s": {"shape": [], "values": ["hello"]}}}`,
		`{"inputs": {}}`,
		`{"inputs": {"x": {"shape": [-1, 4], "values": []}}}`,
		`{"inputs": {"x": {"shape": [1000000, 1000000], "values": []}}}`,
		`{"inputs": {"x": {"shape": [2], "values": [1]}}}`,
		`{"inputs": {"x": {"shape": [1], "values": [9223372036854775807]}}}`,
		`{"inputs": {"x": {"shape": [1], "values": [1e400]}}}`,
		`{"extra": 1, "inputs": {"x": {"shape": [1], "values": [0]}}}`,
		`{"inputs": {`,
		`null`,
		``,
		`[]`,
		// Anything but whitespace after the request object.
		`{"inputs": {"x": {"shape": [1], "values": [1]}}} garbage`,
		`{"inputs": {"x": {"shape": [1], "values": [1]}}}{"inputs": {"x": {"shape": [1], "values": [2]}}}`,
		"{\"inputs\": {\"x\": {\"shape\": [1], \"values\": [1]}}} \n\t ",
		// Literals the two decoders must read alike.
		`{"inputs": {"x": {"shape": [6], "values": [1.5, -0, -0.0, 1e2, 1E-2, 12345678901234567890]}}}`,
		`{"inputs": {"x": {"shape": [3], "values": [2147483647, -2147483648, 2147483648]}}}`,
		"{\"inputs\": {\"x\": {\"shape\": [2], \"values\": [ 1 ,\t2\n]}}}",
		`{"inputs": {"s": {"shape": [4], "values": ["a\"b", "\u00e9\ud83d\ude00", "],[\\", "\ud800"]}}}`,
		"{\"inputs\": {\"s\": {\"shape\": [1], \"values\": [\"\xff\"]}}}",
		`{"inputs": {"x": {"shape": [3], "values": [[1, 2], {"a": [3]}, null]}}}`,
		`{"inputs": {"x": {"shape": [2], "values": [true, "1"]}}}`,
		// Duplicate and case-folded keys, null and wrongly typed fields.
		`{"inputs": {"x": {"shape": [1], "values": [1], "values": [2, 3], "shape": [2]}}}`,
		`{"inputs": {"x": {"shape": [1], "values": [1]}, "x": {"shape": [2], "values": [4, 5]}}}`,
		`{"INPUTS": {"x": {"Shape": [1], "VALUES": [7]}}}`,
		`{"inputs": {"x": {"shape": [0], "values": [1], "values": null}}}`,
		`{"inputs": {"x": {"shape": [0]}}}`,
		`{"inputs": {"x": {"shape": [1], "values": 1}}}`,
		`{"inputs": {"x": {"shape": [1], "values": {"0": 1}}}}`,
		`{"inputs": {"x": {"shape": [1], "values": [1], "dtype": "float32"}}}`,
		`{"inputs": {"x": null}}`,
		`{"inputs": {"x": [1]}}`,
		// The scanner's edges. Values nested to encoding/json's limit of
		// 10 000 levels from the top object, then one deeper.
		nested(10000),
		nested(10001),
		// Names matched after unescaping, and by Unicode case folding.
		`{"\u0069nputs": {"x": {"shape": [1], "values": [1]}}}`,
		`{"inputs": {"x": {"ſhape": [1], "values": [1]}}}`,
		// A second inputs object merges into the first; null drops both.
		`{"inputs": {"x": {"shape": [1], "values": [1]}}, "inputs": {"y": {"shape": [2], "values": [2, 3]}}}`,
		`{"inputs": {"x": {"shape": [1], "values": [1]}}, "inputs": null}`,
		// A second shape decodes into the first: null keeps the 1.
		`{"inputs": {"x": {"shape": [1], "shape": [null], "values": [7]}}}`,
		`{"inputs": {"x": {"shape": [2, 3], "shape": [4], "shape": [null, null], "values": [1, 2, 3, 4, 5, 6, 7, 8]}}}`,
		`{"inputs": {"x": {"shape": [1.0], "values": [1]}}}`,
		`{"inputs": {"x": {"shape": [1e0], "values": [1]}}}`,
		`{"inputs": {"x": {"shape": [-0], "values": []}}}`,
		// Aliases that are not UTF-8, or hold a lone surrogate.
		"{\"inputs\": {\"\xff\xfe\": {\"shape\": [1], \"values\": [1]}}}",
		`{"inputs": {"\ud800": {"shape": [1], "values": [1]}}}`,
		// A raw control byte inside a string, and a leading byte-order mark.
		"{\"inputs\": {\"x\": {\"shape\": [1], \"values\": [\"a\x01b\"]}}}",
		"\xef\xbb\xbf{\"inputs\": {\"x\": {\"shape\": [1], \"values\": [1]}}}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	dtypes := []tensor.DType{tensor.Float32, tensor.Float64, tensor.Int32, tensor.Int64, tensor.Bool, tensor.String}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParsePredictRequest(data)
		ref, refErr := refParse(data)
		// No exceptions: the decoder is nowhere stricter or laxer than the
		// reference, trailing data included (refParse has the same rule).
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParsePredictRequest: %v, reference decoder: %v", err, refErr)
		}
		if err != nil {
			return
		}
		// Postconditions of a successful parse.
		if len(req.Inputs) == 0 || len(req.Inputs) != len(ref) {
			t.Fatalf("parse gave %d inputs, the reference %d", len(req.Inputs), len(ref))
		}
		for alias, rt := range req.Inputs {
			n, err := checkRawShape(rt.Shape, rt.count)
			if err != nil {
				t.Fatalf("accepted input %q fails its own shape check: %v", alias, err)
			}
			if n > maxRequestElements {
				t.Fatalf("accepted input %q has %d elements, over the cap", alias, n)
			}
			want, ok := ref[alias]
			if !ok || !reflect.DeepEqual(rt.Shape, want.Shape) || rt.count != len(want.Values) {
				t.Fatalf("input %q: shape %v with %d values, the reference has %v with %d",
					alias, rt.Shape, rt.count, want.Shape, len(want.Values))
			}
			// Binding may error (type mismatches) but never panics, and both
			// decoders bind the same inputs to the same bits.
			for _, dt := range dtypes {
				bound, err := rt.Bind(TensorSpec{Alias: alias, DType: dt.String()})
				refBound, refErr := refBind(want, dt)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("input %q as %v: Bind: %v, reference: %v", alias, dt, err, refErr)
				}
				if err == nil && (bound.NumElements() != n || !sameBits(bound, refBound)) {
					t.Fatalf("input %q as %v: Bind gave %v, the reference %v", alias, dt, bound, refBound)
				}
			}
		}
	})
}

// nested is a one-value request whose value is an array nested so that
// the deepest bracket is depth levels below the top (the top object is
// level 1).
func nested(depth int) string {
	const head, tail = `{"inputs": {"x": {"shape": [1], "values": [`, `]}}}`
	extra := depth - 4 // the top object, inputs, the tensor and values
	return head + strings.Repeat("[", extra) + strings.Repeat("]", extra) + tail
}

func FuzzModelVersion(f *testing.F) {
	seeds := []string{
		"0", "1", "42", "007", "999999999999999999", "9999999999999999999",
		"", "-1", "+1", " 1", "1 ", "1.0", "v1", "latest", "0x10", "١٢",
		"00000000000000000001", "18446744073709551616",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		v, err := ParseVersion(name)
		if err != nil {
			return
		}
		// Every accepted name is canonical: it round-trips exactly, and no
		// two distinct accepted names share a value.
		if v < 0 {
			t.Fatalf("ParseVersion(%q) = %d, negative", name, v)
		}
		if back := FormatVersion(v); back != name {
			t.Fatalf("ParseVersion(%q) = %d, but FormatVersion gives %q — name is not canonical", name, v, back)
		}
	})
}
