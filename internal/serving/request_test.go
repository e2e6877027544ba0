package serving

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
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

// TestParseBindAllocations pins what reading the body once bought: decoding
// a body and binding it costs the same few allocations however many elements
// it carries (one json.Number per element when values were boxed: 2 087 for
// 16×64, 159 for 1×64; 32 to 35 while encoding/json framed the body).
func TestParseBindAllocations(t *testing.T) {
	spec := TensorSpec{Alias: "x", DType: "float32", Shape: []int{-1, 64}}
	for _, c := range []struct{ rows, max int }{{16, 16}, {1, 16}} {
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

// BenchmarkParseBind times the two request layers on the bodies the serving
// benchmark sends: 1×64 and 16×64 float32.
//
//	go test -run '^$' -bench ParseBind -benchmem -cpu 1 ./internal/serving
func BenchmarkParseBind(b *testing.B) {
	spec := TensorSpec{Alias: "x", DType: "float32", Shape: []int{-1, 64}}
	for _, rows := range []int{1, 16} {
		body := predictBody(b, rows)
		req, err := ParsePredictRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows%d/parse", rows), func(b *testing.B) {
			for b.Loop() {
				if _, err := ParsePredictRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows%d/bind", rows), func(b *testing.B) {
			for b.Loop() {
				if _, err := req.Inputs["x"].Bind(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBindFloatsExact holds Bind's float reading to strconv.ParseFloat bit for
// bit, narrowed to float32 as SetFloat narrows, on the literals either side of
// the exact fast path's limits: float32 bit patterns in their shortest f, e and
// g forms (a strided sweep), random float64s, mantissas of 19 and 20 digits and
// around 2^53, and exponents of ±22 and ±23.
func TestBindFloatsExact(t *testing.T) {
	var lits []string
	for b := uint64(0); b < 1<<32; b += 40009 { // prime stride: ~107k patterns
		f := float64(math.Float32frombits(uint32(b)))
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		for _, fmtc := range []byte{'f', 'e', 'g'} {
			lits = append(lits, strconv.FormatFloat(f, fmtc, -1, 32))
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 50000 {
		if f := math.Float64frombits(r.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			lits = append(lits, strconv.FormatFloat(f, 'g', -1, 64))
		}
		// A random decimal: up to 20 digits, a point anywhere (or after a
		// leading "0." and zeros), exponent to ±30.
		digits := strconv.FormatUint(r.Uint64(), 10)
		digits = digits[:min(len(digits), 1+r.IntN(20))]
		switch p := r.IntN(len(digits) + 2); {
		case p == 0:
			digits = "0." + strings.Repeat("0", r.IntN(5)) + digits
		case p < len(digits):
			digits = digits[:p] + "." + digits[p:]
		}
		lits = append(lits, fmt.Sprintf("%s%se%d", []string{"", "-"}[r.IntN(2)], digits, r.IntN(61)-30))
	}
	for _, m := range []string{"1", "7", "4503599627370495", "9007199254740991", "9007199254740992",
		"9007199254740993", "1234567890123456789", "9999999999999999999", "12345678901234567890",
		"0.1234567890123456789", "0.12345678901234567890", "100000000000000000000"} {
		for _, e := range []int{0, 1, 21, 22, 23, -1, -21, -22, -23} {
			lits = append(lits, fmt.Sprintf("%se%d", m, e), fmt.Sprintf("-%sE%+d", m, e))
		}
	}
	const batch = 1 << 16
	for start := 0; start < len(lits); start += batch {
		chunk := lits[start:min(start+batch, len(lits))]
		body := fmt.Sprintf(`{"inputs": {"x": {"shape": [%d], "values": [%s]}}}`, len(chunk), strings.Join(chunk, ","))
		req, err := ParsePredictRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		f32, err := req.Inputs["x"].Bind(TensorSpec{Alias: "x", DType: "float32"})
		if err != nil {
			t.Fatal(err)
		}
		f64, err := req.Inputs["x"].Bind(TensorSpec{Alias: "x", DType: "float64"})
		if err != nil {
			t.Fatal(err)
		}
		for i, lit := range chunk {
			want, err := strconv.ParseFloat(lit, 64)
			if err != nil {
				t.Fatalf("%s: %v", lit, err)
			}
			if got := f64.Float64s()[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s as float64: %v (%#x), ParseFloat gives %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got := f32.Float32s()[i]; math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("%s as float32: %v, ParseFloat narrowed gives %v", lit, got, float32(want))
			}
		}
	}
	t.Logf("%d literals", len(lits))
}
