package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
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

	text  []byte // the values array as JSON text the scanner validated
	count int    // its top-level elements
}

// PredictRequest is a decoded predict call, inputs keyed by signature
// alias.
type PredictRequest struct {
	Inputs map[string]RawTensor `json:"inputs"`
}

// ParsePredictRequest decodes and validates the predict JSON body. Shapes
// must be non-negative, small enough to allocate, and consistent with the
// flat value count; anything else is a client error, never a panic. The body
// is read once, and accepted or refused exactly as encoding/json with
// DisallowUnknownFields would; each input keeps its values as a slice of
// data, so data must not change while the request is in use.
func ParsePredictRequest(data []byte) (*PredictRequest, error) {
	s := scanner{data: data}
	var req PredictRequest
	if err := s.request(&req); err != nil {
		return nil, fmt.Errorf("serving: bad predict request: %w", err)
	}
	if s.peek(); s.at != len(data) {
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

// The request is read by encoding/json's rules for the structs above: a
// member name matches a field exactly or case-folded, the last duplicate
// wins, null resets, an unknown member is an error, a second "inputs"
// object merges into the first, and a second "shape" decodes into the first
// one's slice.

// request reads the body's one top-level value into req.
func (s *scanner) request(req *PredictRequest) error {
	switch s.peek() {
	case 'n':
		return s.word("null")
	case '{':
	default:
		return s.unexpected("looking for the request object")
	}
	return s.object(func(name []byte) error {
		if !isField(name, "inputs") {
			return fmt.Errorf("unknown field %q", name)
		}
		switch s.peek() {
		case 'n':
			req.Inputs = nil
			return s.word("null")
		case '{':
		default:
			return s.unexpected("in inputs: want an object")
		}
		if req.Inputs == nil {
			req.Inputs = make(map[string]RawTensor, 1)
		}
		return s.object(func(alias []byte) error {
			rt, err := s.tensor(3) // below the top object and inputs
			if err == nil {
				req.Inputs[string(alias)] = rt
			}
			return err
		})
	})
}

// UnmarshalJSON reads one tensor object with the scanner ParsePredictRequest
// uses, so a RawTensor decoded on its own holds what a request's would.
func (rt *RawTensor) UnmarshalJSON(data []byte) error {
	s := scanner{data: data}
	t, err := s.tensor(1)
	if err != nil {
		return err
	}
	if s.peek(); s.at != len(data) {
		return s.unexpected("after the tensor object")
	}
	t.text = bytes.Clone(t.text) // data belongs to the caller
	*rt = t
	return nil
}

// tensor reads a tensor object, or null, that sits at nesting level depth.
func (s *scanner) tensor(depth int) (RawTensor, error) {
	var rt RawTensor
	switch s.peek() {
	case 'n':
		return rt, s.word("null")
	case '{':
	default:
		return rt, s.unexpected("looking for a tensor object")
	}
	err := s.object(func(name []byte) error {
		switch {
		case isField(name, "shape"):
			return s.shape(&rt.Shape)
		case isField(name, "values"):
			return s.values(&rt, depth+1)
		}
		return fmt.Errorf("unknown field %q", name)
	})
	return rt, err
}

// shape reads a shape array, or null, into *shape. Like encoding/json it
// decodes into the slice already there: element i overwrites position i of
// its backing array, and a null element leaves what that position held.
func (s *scanner) shape(shape *[]int) error {
	switch s.peek() {
	case 'n':
		*shape = nil
		return s.word("null")
	case '[':
	default:
		return s.unexpected("in shape: want an array of integers")
	}
	held, n := (*shape)[:cap(*shape)], 0
	err := s.array(func() error {
		if n == len(held) {
			held = append(held, 0)
			held = held[:cap(held)]
		}
		n++
		switch c := s.peek(); {
		case c == 'n':
			return s.word("null")
		case c == '-' || isDigit(c):
			start := s.at
			if err := s.number(); err != nil {
				return err
			}
			d, err := strconv.Atoi(string(s.data[start:s.at]))
			if err != nil {
				return fmt.Errorf("shape: %s is not an int", s.data[start:s.at])
			}
			held[n-1] = d
			return nil
		}
		return s.unexpected("in shape: want an integer")
	})
	if n == 0 {
		held = []int{}
	}
	*shape = held[:n]
	return err
}

// values reads the values array, or null, keeping its text and counting its
// elements; depth is the array's nesting level.
func (s *scanner) values(rt *RawTensor, depth int) error {
	switch s.peek() {
	case 'n':
		rt.text, rt.count = nil, 0
		return s.word("null")
	case '[':
	default:
		return s.unexpected("in values: want an array")
	}
	start, n := s.at, 0
	err := s.array(func() error {
		n++
		return s.value(depth)
	})
	rt.text, rt.count = s.data[start:s.at], n
	return err
}

// isField reports whether a member name selects the field named field.
func isField(name []byte, field string) bool {
	return strings.EqualFold(string(name), field)
}

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
	if _, err := checkRawShape(rt.Shape, count); err != nil {
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
	e := elements{text: text, at: 1}
	var i int
	switch dt {
	case tensor.Float32:
		i, err = readFloats(&e, t.Float32s())
	case tensor.Float64:
		i, err = readFloats(&e, t.Float64s())
	case tensor.Int32:
		i, err = readInts(&e, t.Int32s())
	case tensor.Int64:
		i, err = readInts(&e, t.Int64s())
	case tensor.Bool:
		i, err = readBools(&e, t.Bools())
	case tensor.String:
		i, err = readStrings(&e, t.Strings())
	default:
		err = fmt.Errorf("unsupported dtype %v", dt)
	}
	if err != nil {
		return nil, fmt.Errorf("serving: input %q value %d: %w", spec.Alias, i, err)
	}
	return t, nil
}

// elements hands out, in turn, the literals of the top-level elements of a
// JSON array that the scanner or json.Marshal produced.
type elements struct {
	text []byte
	at   int
}

// skip steps over the white space and comma before the next element.
func (e *elements) skip() {
	for e.text[e.at] <= ' ' || e.text[e.at] == ',' {
		e.at++
	}
}

// next returns the next element's literal, a nested array or object whole.
func (e *elements) next() []byte {
	e.skip()
	s := scanner{data: e.text, at: e.at}
	_ = s.value(0) // the text is valid JSON: this only finds the element's end
	lit := e.text[e.at:s.at]
	e.at = s.at
	return lit
}

// The read loops below fill dst from e and return how many elements they
// read, which on an error is the index of the element at fault.

func readFloats[T float32 | float64](e *elements, dst []T) (int, error) {
	for i := range dst {
		e.skip()
		f, end, ok := exactFloat(e.text, e.at)
		if ok {
			e.at = end
		} else {
			lit := e.next()
			if !isNumber(lit) {
				return i, fmt.Errorf("want a number, got %.20q", lit)
			}
			var err error
			if f, err = strconv.ParseFloat(string(lit), 64); err != nil {
				return i, err
			}
		}
		dst[i] = T(f) // a float32 is the float64 narrowed, as SetFloat does
	}
	return len(dst), nil
}

func readInts[T int32 | int64](e *elements, dst []T) (int, error) {
	for i := range dst {
		lit := e.next()
		if !isNumber(lit) {
			return i, fmt.Errorf("want a number, got %.20q", lit)
		}
		x, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return i, err
		}
		if int64(T(x)) != x {
			return i, fmt.Errorf("%d overflows int32", x)
		}
		dst[i] = T(x)
	}
	return len(dst), nil
}

func readBools(e *elements, dst []bool) (int, error) {
	for i := range dst {
		switch lit := e.next(); string(lit) {
		case "true":
			dst[i] = true
		case "false":
		default:
			return i, fmt.Errorf("want a bool, got %.20q", lit)
		}
	}
	return len(dst), nil
}

func readStrings(e *elements, dst []string) (int, error) {
	for i := range dst {
		lit := e.next()
		if lit[0] != '"' {
			return i, fmt.Errorf("want a string, got %.20q", lit)
		}
		dst[i] = string(unquote(lit[1 : len(lit)-1]))
	}
	return len(dst), nil
}

func isNumber(lit []byte) bool { return lit[0] == '-' || isDigit(lit[0]) }

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat reads the JSON number at text[i] when its value is one IEEE
// multiply or divide of two exact operands: at most 19 significant digits,
// below 2^53, scaled by a power of ten up to 1e22. That operation rounds
// once, so its result has the bits strconv.ParseFloat gives (Clinger's fast
// path). It returns the index past the number, and ok false for any other
// number and for what is not a number, which the caller reads with
// ParseFloat or refuses.
func exactFloat(text []byte, i int) (f float64, end int, ok bool) {
	neg := text[i] == '-'
	if neg {
		i++
	}
	if !isDigit(text[i]) {
		return 0, 0, false
	}
	var mant uint64
	digits, exp := 0, 0 // significant digits in mant; the power of ten that scales it
	for ; isDigit(text[i]); i++ {
		if digits == 19 {
			return 0, 0, false
		}
		if mant = mant*10 + uint64(text[i]-'0'); mant != 0 {
			digits++
		}
	}
	if text[i] == '.' {
		for i++; isDigit(text[i]); i++ {
			if digits == 19 {
				return 0, 0, false
			}
			if mant = mant*10 + uint64(text[i]-'0'); mant != 0 {
				digits++
			}
			exp--
		}
	}
	if text[i] == 'e' || text[i] == 'E' {
		i++
		eneg := text[i] == '-'
		if text[i] == '-' || text[i] == '+' {
			i++
		}
		e := 0
		for ; isDigit(text[i]); i++ {
			if e = e*10 + int(text[i]-'0'); e > 1e8 {
				return 0, 0, false
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if mant >= 1<<53 {
		return 0, 0, false
	}
	if f = float64(mant); neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, i, true
	case 0 < exp && exp < len(pow10):
		return f * pow10[exp], i, true
	case -len(pow10) < exp && exp < 0:
		return f / pow10[-exp], i, true
	}
	return 0, 0, false
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
