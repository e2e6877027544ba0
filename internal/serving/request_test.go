package serving

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// predictBody renders a rows×64 float32 predict body the way a client (and
// bench/) does: by marshalling a hand-built RawTensor.
func predictBody(t testing.TB, rows int) []byte {
	t.Helper()
	values := make([]any, rows*64)
	for i := range values {
		values[i] = float32(i%97)/97 - 0.5
	}
	body, err := json.Marshal(PredictRequest{Inputs: map[string]RawTensor{"x": {Shape: []int{rows, 64}, Values: values}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestParseBindAllocations pins what not boxing the values bought: decoding a
// body and binding it costs a few dozen allocations however many elements it
// carries (one json.Number per element before: 2 087 for 16×64, 159 for 1×64).
func TestParseBindAllocations(t *testing.T) {
	spec := TensorSpec{Alias: "x", DType: "float32", Shape: []int{-1, 64}}
	for _, c := range []struct{ rows, max int }{{16, 48}, {1, 40}} {
		body := predictBody(t, c.rows)
		allocs := testing.AllocsPerRun(50, func() {
			req, err := ParsePredictRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := req.Inputs["x"].Bind(spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d×64: %.0f allocations", c.rows, allocs)
		if allocs > float64(c.max) {
			t.Errorf("parse + bind of a %d×64 body: %.0f allocations, want <= %d", c.rows, allocs, c.max)
		}
	}
}

// TestHandBuiltTensor: a RawTensor filled in by hand marshals to the wire
// format and binds through the same literal reader a decoded one does.
func TestHandBuiltTensor(t *testing.T) {
	rt := RawTensor{Shape: []int{2, 2}, Values: []any{float32(0.1), 2, json.Number("-3e2"), 4.5}}
	wire, err := json.Marshal(rt)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"shape":[2,2],"values":[0.1,2,-3e2,4.5]}`; string(wire) != want {
		t.Fatalf("marshalled %s, want %s", wire, want)
	}
	spec := TensorSpec{Alias: "x", DType: "float32", Shape: []int{-1, 2}}
	built, err := rt.Bind(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RawTensor
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	parsed, err := decoded.Bind(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromFloat32s(tensor.Shape{2, 2}, []float32{0.1, 2, -300, 4.5})
	if !sameBits(built, want) || !sameBits(parsed, want) {
		t.Fatalf("hand-built bound to %v, decoded to %v, want %v", built, parsed, want)
	}
	flat := TensorSpec{Alias: "x", DType: "float32"}
	if _, err := (RawTensor{Shape: []int{1}, Values: []any{"a"}}).Bind(flat); err == nil || !strings.Contains(err.Error(), "want a number") {
		t.Errorf("string into a float32 input: err = %v", err)
	}
	if _, err := (RawTensor{Shape: []int{3}, Values: []any{1}}).Bind(flat); err == nil {
		t.Error("hand-built tensor with 1 value for shape [3] bound")
	}
}

// TestBindErrorsNameTheElement: the class of error a mistyped element gets is
// the one it always got.
func TestBindErrorsNameTheElement(t *testing.T) {
	for _, c := range []struct {
		dtype  string
		n      int
		values string
		want   string
	}{
		{"float32", 2, `[1, true]`, "value 1: want a number"},
		{"float32", 2, `[1, [2, 3]]`, "value 1: want a number"},
		{"float64", 1, `[null]`, "value 0: want a number"},
		{"float32", 1, `[1e400]`, "value 0: "},
		{"int32", 1, `[2147483648]`, "overflows int32"},
		{"int64", 1, `[1.5]`, "value 0: "},
		{"int64", 1, `["7"]`, "want a number"},
		{"bool", 1, `[0]`, "want a bool"},
		{"string", 1, `[true]`, "want a string"},
	} {
		body := fmt.Sprintf(`{"inputs": {"x": {"shape": [%d], "values": %s}}}`, c.n, c.values)
		req, err := ParsePredictRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		_, err = req.Inputs["x"].Bind(TensorSpec{Alias: "x", DType: c.dtype})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s as %s: err = %v, want one containing %q", c.values, c.dtype, err, c.want)
		}
	}
}
