package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// wireSamples covers every dtype × rank 0–4 × empty / scalar shapes, with the
// values an encoding is most likely to lose: NaN payloads, −0, extreme
// integers, empty and non-UTF-8 strings.
func wireSamples() []*Tensor {
	shapes := []Shape{{}, {5}, {0}, {2, 3}, {2, 0, 3}, {1, 2, 3}, {2, 1, 2, 2}, {300}}
	var out []*Tensor
	for _, shape := range shapes {
		n := shape.NumElements()
		f32, f64 := make([]float32, n), make([]float64, n)
		i32, i64 := make([]int32, n), make([]int64, n)
		bs, ss := make([]bool, n), make([]string, n)
		for i := 0; i < n; i++ {
			f32[i] = []float32{float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc00001 + uint32(i)),
				math.Float32frombits(0xffc12345), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, float32(i) * 1.5}[i%6]
			f64[i] = []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001 + uint64(i)),
				math.Float64frombits(0xfff0123456789abc), math.Inf(1), math.SmallestNonzeroFloat64, float64(i) / 3}[i%6]
			i32[i] = []int32{math.MinInt32, math.MaxInt32, -1, int32(i)}[i%4]
			i64[i] = []int64{math.MinInt64, math.MaxInt64, -1, int64(i) << 33}[i%4]
			bs[i] = i%3 != 1
			ss[i] = []string{"", "\xff\xfe\x00 not utf-8", "plain", string(make([]byte, 700))}[i%4]
		}
		out = append(out, FromFloat32s(shape, f32), FromFloat64s(shape, f64), FromInt32s(shape, i32),
			FromInt64s(shape, i64), FromBools(shape, bs), FromStrings(shape, ss))
	}
	return out
}

func encodeWith(t *testing.T, x *Tensor, bulk bool) []byte {
	t.Helper()
	enc, raw, err := x.appendEncoding(nil, bulk)
	if err != nil {
		t.Fatalf("encoding %v: %v", x, err)
	}
	return append(enc, raw...)
}

// TestBulkAndElementPathsAgree: the raw byte-view path and the element-loop
// reference produce identical bytes, and read identical bytes back into
// bit-identical tensors, for every dtype. (On a big-endian host both sides
// of the comparison are the element loops and the test is vacuous.)
func TestBulkAndElementPathsAgree(t *testing.T) {
	for _, x := range wireSamples() {
		ref := encodeWith(t, x, false)
		if got := encodeWith(t, x, littleEndian); !bytes.Equal(got, ref) {
			t.Errorf("%v%v: bulk encoding differs from the element loops", x.DType(), x.Shape())
		}
		var viaWriteTo bytes.Buffer
		if n, err := x.WriteTo(&viaWriteTo); err != nil || int(n) != len(ref) || !bytes.Equal(viaWriteTo.Bytes(), ref) {
			t.Errorf("%v%v: WriteTo wrote %d bytes (%v), want the %d reference bytes", x.DType(), x.Shape(), n, err, len(ref))
		}
		for _, bulk := range []bool{false, littleEndian} {
			back, n, err := readFrom(bytes.NewReader(ref), int64(len(ref)), New, bulk)
			if err != nil || int(n) != len(ref) {
				t.Fatalf("%v%v bulk=%v: read %d of %d bytes: %v", x.DType(), x.Shape(), bulk, n, len(ref), err)
			}
			if back.DType() != x.DType() || !back.Shape().Equal(x.Shape()) || !bytes.Equal(encodeWith(t, back, false), ref) {
				t.Errorf("%v%v bulk=%v: round trip changed the tensor's bits", x.DType(), x.Shape(), bulk)
			}
			// One byte less than the encoding needs is a refusal, not a short read.
			if _, _, err := readFrom(bytes.NewReader(ref), int64(len(ref))-1, New, bulk); err == nil {
				t.Errorf("%v%v bulk=%v: accepted under a limit one byte short", x.DType(), x.Shape(), bulk)
			}
		}
	}
}

// overflowStream is the 21-byte stream of the bug report: a float32 tensor
// of rank 4 whose dims are all 0xFFFFFFFF. Their product overflows
// NumElements; unchecked, New panics or asks for terabytes.
func overflowStream() []byte {
	s := []byte{byte(Float32), 4, 0, 0, 0}
	for i := 0; i < 4; i++ {
		s = binary.LittleEndian.AppendUint32(s, math.MaxUint32)
	}
	return s
}

func TestReadFromBoundsWhatItAllocates(t *testing.T) {
	str := func(dims ...uint32) []byte {
		s := binary.LittleEndian.AppendUint32([]byte{byte(String)}, uint32(len(dims)))
		for _, d := range dims {
			s = binary.LittleEndian.AppendUint32(s, d)
		}
		return s
	}
	cases := map[string][]byte{
		"dims overflow":            overflowStream(),
		"dims fit, bytes overflow": append([]byte{byte(Float64), 2, 0, 0, 0}, 0, 0, 0, 0x80, 0, 0, 0, 0x80),
		"payload past the limit":   append([]byte{byte(Int32), 1, 0, 0, 0}, 0, 0, 0, 0x80),
		"rank":                     {byte(Float32), 33, 0, 0, 0},
		"string count":             str(math.MaxUint32, 16),
		"string element":           append(str(1), 0xff, 0xff, 0xff, 0xff),
	}
	if n := len(overflowStream()); n != 21 {
		t.Fatalf("the overflow stream is %d bytes, want 21", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, stream := range cases {
		if _, err := ReadFrom(bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: ReadFrom accepted the stream", name)
		}
		if _, n, err := ReadFromLimit(bytes.NewReader(stream), 1<<20); err == nil || int(n) > len(stream) {
			t.Errorf("%s: ReadFromLimit = %d bytes, %v; want an error", name, n, err)
		}
		var viaGob Tensor
		if err := viaGob.GobDecode(stream); err == nil {
			t.Errorf("%s: GobDecode accepted the stream", name)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing %d hostile streams allocated %d bytes", len(cases), got)
	}
	// A zero-element shape is fine whatever its other dims say.
	empty := append([]byte{byte(Float32), 2, 0, 0, 0}, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	if x, err := ReadFrom(bytes.NewReader(empty)); err != nil || x.NumElements() != 0 {
		t.Errorf("empty tensor with a huge dim: %v, %v", x, err)
	}
	// A hostile Bool byte reads as true and can only ever be written back as 1.
	b, err := ReadFrom(bytes.NewReader([]byte{byte(Bool), 1, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0xff}))
	if err != nil || !b.Equal(FromBools(Shape{3}, []bool{true, false, true})) {
		t.Fatalf("bool bytes 2,0,255 read as %v, %v", b, err)
	}
	if enc := encodeWith(t, b, littleEndian); !bytes.Equal(enc[9:], []byte{1, 0, 1}) {
		t.Errorf("bool payload re-encoded as %v", enc[9:])
	}
}

// TestReadFromAllocDecodesIntoItsBuffer: a decode into a buffer the caller
// provides overwrites every element of that buffer, views it as the stream's
// shape, and allocates at most the Shape — no header, dims or payload of its
// own.
func TestReadFromAllocDecodesIntoItsBuffer(t *testing.T) {
	want := NewRNG(3).Normal(Float32, Shape{64, 32}, 0, 1)
	var enc bytes.Buffer
	if _, err := want.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	stream := enc.Bytes()
	dst := New(Float32, Shape{32, 64})
	for i := range dst.Float32s() {
		dst.Float32s()[i] = float32(math.NaN()) // stale contents
	}
	asked := 0
	alloc := func(dt DType, shape Shape) *Tensor {
		asked++
		return dst.ViewAs(shape)
	}
	r := bytes.NewReader(stream)
	got, n, err := ReadFromAlloc(r, int64(len(stream)), alloc)
	if err != nil || int(n) != len(stream) {
		t.Fatalf("read %d of %d bytes: %v", n, len(stream), err)
	}
	if !got.Equal(want) || &got.Float32s()[0] != &dst.Float32s()[0] || asked != 1 {
		t.Fatalf("decoded %v%v from alloc (asked %d times), want %v%v in the provided buffer", got.DType(), got.Shape(), asked, want.DType(), want.Shape())
	}
	dst = dst.ViewAs(Shape{64, 32}) // so the alloc's view costs nothing
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		if _, _, err := ReadFromAlloc(r, int64(len(stream)), alloc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("a float32 decode into a provided buffer allocates %v times, want ≤ 1", allocs)
	}
}

func FuzzTensorReadFrom(f *testing.F) {
	for _, x := range wireSamples()[:12] {
		enc, raw, _ := x.AppendEncoding(nil)
		f.Add(append(enc, raw...))
	}
	f.Add(overflowStream())
	f.Fuzz(func(t *testing.T, data []byte) {
		x, n, err := ReadFromLimit(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		enc, raw, err := x.AppendEncoding(nil)
		if err != nil {
			t.Fatalf("decoded %v does not encode: %v", x, err)
		}
		// Bool is the one dtype whose encoding is not unique (any non-zero
		// byte reads as true); everything else must come back byte for byte.
		if enc = append(enc, raw...); len(enc) != int(n) || (x.DType() != Bool && !bytes.Equal(enc, data[:n])) {
			t.Fatalf("%d bytes decoded to %v, which encodes to %d different bytes", n, x, len(enc))
		}
	})
}
