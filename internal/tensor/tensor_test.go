package tensor

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestDTypeRoundTrip(t *testing.T) {
	for _, dt := range []DType{Bool, Int32, Int64, Float32, Float64, String} {
		got, err := ParseDType(dt.String())
		if err != nil {
			t.Fatalf("ParseDType(%v): %v", dt, err)
		}
		if got != dt {
			t.Errorf("ParseDType(%v) = %v", dt, got)
		}
	}
	if _, err := ParseDType("nope"); err == nil {
		t.Error("ParseDType accepted an unknown name")
	}
	if _, err := ParseDType("invalid"); err == nil {
		t.Error("ParseDType accepted 'invalid'")
	}
}

func TestDTypeSize(t *testing.T) {
	cases := map[DType]int{Bool: 1, Int32: 4, Float32: 4, Int64: 8, Float64: 8, String: 16}
	for dt, want := range cases {
		if got := dt.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", dt, got, want)
		}
	}
}

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.NumElements() != 24 {
		t.Errorf("NumElements = %d", s.NumElements())
	}
	if s.Rank() != 3 || s.IsScalar() {
		t.Error("rank/scalar misreported")
	}
	if !ScalarShape().IsScalar() || ScalarShape().NumElements() != 1 {
		t.Error("scalar shape misreported")
	}
	if got := s.Strides(); got[0] != 12 || got[1] != 4 || got[2] != 1 {
		t.Errorf("Strides = %v", got)
	}
	if s.Offset(1, 2, 3) != 23 {
		t.Errorf("Offset = %d", s.Offset(1, 2, 3))
	}
	if (Shape{-1, 3}).IsFullyDefined() {
		t.Error("unknown dim reported as defined")
	}
	if (Shape{-1, 3}).NumElements() != -1 {
		t.Error("NumElements of unknown shape should be -1")
	}
}

func TestShapeCompatible(t *testing.T) {
	a, b := Shape{-1, 3}, Shape{2, 3}
	if !a.Compatible(b) {
		t.Fatal("shapes should be compatible")
	}
	if a.Compatible(Shape{2, 4}) || (Shape{2}).Compatible(Shape{3}) {
		t.Error("incompatible shapes reported compatible")
	}
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want Shape
		err        bool
	}{
		{Shape{2, 3}, Shape{2, 3}, Shape{2, 3}, false},
		{Shape{2, 3}, Shape{3}, Shape{2, 3}, false},
		{Shape{2, 1}, Shape{1, 4}, Shape{2, 4}, false},
		{Shape{}, Shape{5}, Shape{5}, false},
		{Shape{2}, Shape{3}, nil, true},
	}
	for _, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.err {
			if err == nil {
				t.Errorf("BroadcastShapes(%v,%v) should fail", c.a, c.b)
			}
			continue
		}
		if err != nil || !got.Equal(c.want) {
			t.Errorf("BroadcastShapes(%v,%v) = %v, %v", c.a, c.b, got, err)
		}
	}
}

func TestNewZeroed(t *testing.T) {
	tt := New(Float32, Shape{3, 2})
	for _, v := range tt.Float32s() {
		if v != 0 {
			t.Fatal("New not zeroed")
		}
	}
	if tt.ByteSize() != 24 {
		t.Errorf("ByteSize = %d", tt.ByteSize())
	}
}

func TestFromAndAccessors(t *testing.T) {
	tt := FromFloat32s(Shape{2, 2}, []float32{1, 2, 3, 4})
	if tt.FloatAt(3) != 4 {
		t.Error("FloatAt wrong")
	}
	tt.SetFloat(0, 9)
	if tt.Float32s()[0] != 9 {
		t.Error("SetFloat wrong")
	}
	it := FromInt64s(Shape{2}, []int64{7, 8})
	if it.IntAt(1) != 8 {
		t.Error("IntAt wrong")
	}
	st := FromStrings(Shape{1}, []string{"hi"})
	if st.Strings()[0] != "hi" {
		t.Error("strings accessor wrong")
	}
	bt := FromBools(Shape{1}, []bool{true})
	if !bt.Bools()[0] {
		t.Error("bool accessor wrong")
	}
}

func TestFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched data length")
		}
	}()
	FromFloat32s(Shape{2, 2}, []float32{1})
}

func TestCloneIsDeep(t *testing.T) {
	a := FromFloat32s(Shape{2}, []float32{1, 2})
	b := a.Clone()
	b.Float32s()[0] = 99
	if a.Float32s()[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestReshape(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	b, err := a.Reshape(Shape{3, -1})
	if err != nil || !b.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("Reshape = %v, %v", b, err)
	}
	// Views share storage.
	b.Float32s()[0] = 42
	if a.Float32s()[0] != 42 {
		t.Error("Reshape should be a view")
	}
	if _, err := a.Reshape(Shape{4, -1}); err == nil {
		t.Error("Reshape accepted a non-divisible wildcard")
	}
	if _, err := a.Reshape(Shape{-1, -1}); err == nil {
		t.Error("Reshape accepted two wildcards")
	}
	if _, err := a.Reshape(Shape{7}); err == nil {
		t.Error("Reshape accepted wrong element count")
	}
}

func TestCast(t *testing.T) {
	a := FromFloat32s(Shape{3}, []float32{1.7, 0, -2.2})
	i, err := a.Cast(New, Int32)
	if err != nil {
		t.Fatal(err)
	}
	if got := i.Int32s(); got[0] != 1 || got[1] != 0 || got[2] != -2 {
		t.Errorf("Cast to int32 = %v", got)
	}
	b, err := a.Cast(New, Bool)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Bools(); !got[0] || got[1] || !got[2] {
		t.Errorf("Cast to bool = %v", got)
	}
	back, err := b.Cast(New, Float32)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Float32s(); got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Errorf("bool->float = %v", got)
	}
	if _, err := a.Cast(New, String); err == nil {
		t.Error("Cast to string should fail")
	}
}

func TestBinaryOpsExact(t *testing.T) {
	a := FromFloat32s(Shape{2, 2}, []float32{1, 2, 3, 4})
	b := FromFloat32s(Shape{2, 2}, []float32{10, 20, 30, 40})
	sum, err := Binary(New, OpAdd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 33, 44}
	for i, v := range sum.Float32s() {
		if v != want[i] {
			t.Fatalf("Add = %v", sum.Float32s())
		}
	}
	prod, _ := Binary(New, OpMul, a, b)
	if prod.Float32s()[3] != 160 {
		t.Errorf("Mul = %v", prod.Float32s())
	}
	diff, _ := Binary(New, OpSub, b, a)
	if diff.Float32s()[0] != 9 {
		t.Errorf("Sub = %v", diff.Float32s())
	}
	quot, _ := Binary(New, OpDiv, b, a)
	if quot.Float32s()[1] != 10 {
		t.Errorf("Div = %v", quot.Float32s())
	}
	sqd, _ := Binary(New, OpSquaredDifference, a, b)
	if sqd.Float32s()[0] != 81 {
		t.Errorf("SquaredDifference = %v", sqd.Float32s())
	}
}

func TestBinaryBroadcast(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	row := FromFloat32s(Shape{3}, []float32{10, 20, 30})
	out, err := Binary(New, OpAdd, a, row)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("broadcast add = %v, want %v", out.Float32s(), want)
		}
	}
	col := FromFloat32s(Shape{2, 1}, []float32{100, 200})
	out2, err := Binary(New, OpAdd, a, col)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Float32s()[0] != 101 || out2.Float32s()[3] != 204 {
		t.Errorf("col broadcast = %v", out2.Float32s())
	}
	sc := Scalar(1)
	out3, err := Binary(New, OpMul, a, sc)
	if err != nil || !out3.Equal(a) {
		t.Errorf("scalar broadcast failed: %v %v", out3, err)
	}
	// scalar on the left
	out4, err := Binary(New, OpSub, sc, a)
	if err != nil || out4.Float32s()[2] != -2 {
		t.Errorf("left scalar broadcast = %v, %v", out4, err)
	}
}

func TestBinaryErrors(t *testing.T) {
	a := FromFloat32s(Shape{2}, []float32{1, 2})
	b := FromFloat64s(Shape{2}, []float64{1, 2})
	if _, err := Binary(New, OpAdd, a, b); err == nil {
		t.Error("mixed dtypes accepted")
	}
	s := FromStrings(Shape{1}, []string{"x"})
	if _, err := Binary(New, OpAdd, s, s); err == nil {
		t.Error("string add accepted")
	}
	c := FromFloat32s(Shape{3}, []float32{1, 2, 3})
	if _, err := Binary(New, OpAdd, a, c); err == nil {
		t.Error("non-broadcastable shapes accepted")
	}
}

func TestUnaryOps(t *testing.T) {
	a := FromFloat32s(Shape{4}, []float32{-2, -0.5, 0, 3})
	neg, _ := Unary(New, OpNeg, a)
	if neg.Float32s()[0] != 2 || neg.Float32s()[3] != -3 {
		t.Errorf("Neg = %v", neg.Float32s())
	}
	relu, _ := Unary(New, OpRelu, a)
	if relu.Float32s()[0] != 0 || relu.Float32s()[3] != 3 {
		t.Errorf("Relu = %v", relu.Float32s())
	}
	sq, _ := Unary(New, OpSquare, a)
	if sq.Float32s()[0] != 4 {
		t.Errorf("Square = %v", sq.Float32s())
	}
	sig, _ := Unary(New, OpSigmoid, FromFloat64s(Shape{1}, []float64{0}))
	if sig.Float64s()[0] != 0.5 {
		t.Errorf("Sigmoid(0) = %v", sig.Float64s())
	}
	gate, _ := Unary(New, OpReluGradGate, a)
	if gate.Float32s()[0] != 0 || gate.Float32s()[3] != 1 {
		t.Errorf("ReluGradGate = %v", gate.Float32s())
	}
	sign, _ := Unary(New, OpSign, a)
	if sign.Float32s()[0] != -1 || sign.Float32s()[2] != 0 || sign.Float32s()[3] != 1 {
		t.Errorf("Sign = %v", sign.Float32s())
	}
}

func TestCompareAndSelectAndLogical(t *testing.T) {
	a := FromFloat32s(Shape{3}, []float32{1, 5, 3})
	b := FromFloat32s(Shape{3}, []float32{2, 5, 1})
	lt, err := Compare(New, CmpLess, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := lt.Bools(); !got[0] || got[1] || got[2] {
		t.Errorf("Less = %v", got)
	}
	eq, _ := Compare(New, CmpEqual, a, b)
	if got := eq.Bools(); got[0] || !got[1] || got[2] {
		t.Errorf("Equal = %v", got)
	}
	ge, _ := Compare(New, CmpGreaterEqual, a, b)
	sel, err := Select(New, ge, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Float32s(); got[0] != 2 || got[1] != 5 || got[2] != 3 {
		t.Errorf("Select = %v", got)
	}
	and, err := Logical(New, "and", lt, eq)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range and.Bools() {
		if v {
			t.Errorf("and = %v", and.Bools())
		}
	}
	or, _ := Logical(New, "or", lt, eq)
	if !or.Bools()[0] || !or.Bools()[1] || or.Bools()[2] {
		t.Errorf("or = %v", or.Bools())
	}
}

func TestAddN(t *testing.T) {
	a := FromFloat32s(Shape{2}, []float32{1, 2})
	b := FromFloat32s(Shape{2}, []float32{10, 20})
	c := FromFloat32s(Shape{2}, []float32{100, 200})
	out, err := AddN(New, []*Tensor{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Float32s(); got[0] != 111 || got[1] != 222 {
		t.Errorf("AddN = %v", got)
	}
	if _, err := AddN(New, nil); err == nil {
		t.Error("AddN of nothing accepted")
	}
	if _, err := AddN(New, []*Tensor{a, FromFloat32s(Shape{3}, []float32{1, 2, 3})}); err == nil {
		t.Error("AddN shape mismatch accepted")
	}
}

func TestMatMul(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	b := FromFloat32s(Shape{3, 2}, []float32{7, 8, 9, 10, 11, 12})
	out, err := MatMul(a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", out.Float32s(), want)
		}
	}
}

func TestMatMulTranspose(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	b := FromFloat32s(Shape{3, 2}, []float32{7, 8, 9, 10, 11, 12})
	base, _ := MatMul(a, b, false, false)

	at, _ := Transpose(New, a, nil)
	viaTA, err := MatMul(at, b, true, false)
	if err != nil || !viaTA.Equal(base) {
		t.Errorf("transposeA result differs: %v vs %v (%v)", viaTA, base, err)
	}
	bt, _ := Transpose(New, b, nil)
	viaTB, err := MatMul(a, bt, false, true)
	if err != nil || !viaTB.Equal(base) {
		t.Errorf("transposeB result differs: %v vs %v (%v)", viaTB, base, err)
	}
	both, err := MatMul(at, bt, true, true)
	if err != nil || !both.Equal(base) {
		t.Errorf("double transpose differs: %v (%v)", both, err)
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	// Property: A × I == A for random A.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + int(uint(seed)%7)
		k := 1 + int(uint(seed/7)%7)
		a := rng.Uniform(Float32, Shape{m, k}, -3, 3)
		id := New(Float32, Shape{k, k})
		for i := 0; i < k; i++ {
			id.Float32s()[i*k+i] = 1
		}
		out, err := MatMul(a, id, false, false)
		return err == nil && out.AllClose(a, 1e-5, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatMulErrors(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, make([]float32, 6))
	b := FromFloat32s(Shape{2, 3}, make([]float32, 6))
	if _, err := MatMul(a, b, false, false); err == nil {
		t.Error("inner-dim mismatch accepted")
	}
	v := FromFloat32s(Shape{3}, make([]float32, 3))
	if _, err := MatMul(a, v, false, false); err == nil {
		t.Error("rank-1 operand accepted")
	}
	i32 := FromInt32s(Shape{3, 2}, make([]int32, 6))
	if _, err := MatMul(a, i32, false, false); err == nil {
		t.Error("int operand accepted")
	}
}

func TestMatMulLargeParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(1)
	a := rng.Uniform(Float32, Shape{97, 53}, -1, 1)
	b := rng.Uniform(Float32, Shape{53, 81}, -1, 1)
	got, err := MatMul(a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// Serial float64 reference.
	ref := New(Float64, Shape{97, 81})
	for i := 0; i < 97; i++ {
		for p := 0; p < 53; p++ {
			av := float64(a.Float32s()[i*53+p])
			for j := 0; j < 81; j++ {
				ref.Float64s()[i*81+j] += av * float64(b.Float32s()[p*81+j])
			}
		}
	}
	for i := 0; i < ref.NumElements(); i++ {
		if math.Abs(got.FloatAt(i)-ref.FloatAt(i)) > 1e-3 {
			t.Fatalf("parallel matmul diverges at %d: %g vs %g", i, got.FloatAt(i), ref.FloatAt(i))
		}
	}
}

func TestBatchMatMul(t *testing.T) {
	a := FromFloat32s(Shape{2, 1, 2}, []float32{1, 2, 3, 4})
	b := FromFloat32s(Shape{2, 2, 1}, []float32{5, 6, 7, 8})
	out, err := BatchMatMul(New, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Float32s(); got[0] != 17 || got[1] != 53 {
		t.Errorf("BatchMatMul = %v", got)
	}
}

func TestReduceSumMeanMaxMin(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	all, err := Reduce(New, ReduceSum, a, nil, false)
	if err != nil || !all.Shape().IsScalar() || all.FloatAt(0) != 21 {
		t.Fatalf("ReduceSum all = %v, %v", all, err)
	}
	rows, _ := Reduce(New, ReduceSum, a, []int{1}, false)
	if !rows.Shape().Equal(Shape{2}) || rows.FloatAt(0) != 6 || rows.FloatAt(1) != 15 {
		t.Errorf("row sums = %v", rows)
	}
	cols, _ := Reduce(New, ReduceSum, a, []int{0}, false)
	if !cols.Shape().Equal(Shape{3}) || cols.FloatAt(2) != 9 {
		t.Errorf("col sums = %v", cols)
	}
	kept, _ := Reduce(New, ReduceSum, a, []int{1}, true)
	if !kept.Shape().Equal(Shape{2, 1}) {
		t.Errorf("keepDims shape = %v", kept.Shape())
	}
	mean, _ := Reduce(New, ReduceMean, a, nil, false)
	if mean.FloatAt(0) != 3.5 {
		t.Errorf("mean = %v", mean)
	}
	mx, _ := Reduce(New, ReduceMax, a, []int{0}, false)
	if mx.FloatAt(0) != 4 || mx.FloatAt(2) != 6 {
		t.Errorf("max = %v", mx)
	}
	mn, _ := Reduce(New, ReduceMin, a, []int{-1}, false)
	if mn.FloatAt(0) != 1 || mn.FloatAt(1) != 4 {
		t.Errorf("min with negative axis = %v", mn)
	}
	prod, _ := Reduce(New, ReduceProd, a, nil, false)
	if prod.FloatAt(0) != 720 {
		t.Errorf("prod = %v", prod)
	}
}

func TestReduceErrors(t *testing.T) {
	a := FromFloat32s(Shape{2}, []float32{1, 2})
	if _, err := Reduce(New, ReduceSum, a, []int{5}, false); err == nil {
		t.Error("bad axis accepted")
	}
	s := FromStrings(Shape{1}, []string{"x"})
	if _, err := Reduce(New, ReduceSum, s, nil, false); err == nil {
		t.Error("string reduce accepted")
	}
}

func TestReduceSumLinearityProperty(t *testing.T) {
	// Property: sum(a+b) == sum(a) + sum(b).
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		shape := Shape{1 + int(uint(seed)%5), 1 + int(uint(seed/5)%5)}
		a := rng.Uniform(Float64, shape, -10, 10)
		b := rng.Uniform(Float64, shape, -10, 10)
		ab, _ := Binary(New, OpAdd, a, b)
		sumAB, _ := Reduce(New, ReduceSum, ab, nil, false)
		sa, _ := Reduce(New, ReduceSum, a, nil, false)
		sb, _ := Reduce(New, ReduceSum, b, nil, false)
		return math.Abs(sumAB.FloatAt(0)-(sa.FloatAt(0)+sb.FloatAt(0))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestArgMax(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, []float32{1, 9, 3, 7, 5, 6})
	am, err := ArgMax(New, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := am.Int64s(); got[0] != 1 || got[1] != 0 {
		t.Errorf("ArgMax axis 1 = %v", got)
	}
	am0, _ := ArgMax(New, a, 0)
	if got := am0.Int64s(); got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Errorf("ArgMax axis 0 = %v", got)
	}
	if _, err := ArgMax(New, a, 3); err == nil {
		t.Error("bad axis accepted")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(7)
	a := rng.Uniform(Float32, Shape{4, 9}, -5, 5)
	sm, err := Softmax(New, a)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		var sum float64
		for c := 0; c < 9; c++ {
			v := sm.FloatAt(r*9 + c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of range: %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %g", r, sum)
		}
	}
	// Stability: huge logits must not produce NaN.
	big := FromFloat32s(Shape{1, 2}, []float32{1e30, 1e30})
	sb, _ := Softmax(New, big)
	if math.IsNaN(sb.FloatAt(0)) {
		t.Error("softmax overflowed")
	}
	ls, _ := LogSoftmax(New, a)
	if ls.FloatAt(0) > 0 {
		t.Error("log softmax should be <= 0")
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromFloat32s(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	at, err := Transpose(New, a, nil)
	if err != nil || !at.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("Transpose = %v, %v", at, err)
	}
	if at.Float32s()[0] != 1 || at.Float32s()[1] != 4 || at.Float32s()[4] != 3 {
		t.Errorf("Transpose data = %v", at.Float32s())
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		shape := Shape{1 + int(uint(seed)%4), 1 + int(uint(seed/4)%4), 1 + int(uint(seed/16)%4)}
		a := rng.Uniform(Float32, shape, -1, 1)
		at, err := Transpose(New, a, nil)
		if err != nil {
			return false
		}
		back, err := Transpose(New, at, nil)
		return err == nil && back.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTransposePerm(t *testing.T) {
	a := FromInt32s(Shape{2, 3, 4}, func() []int32 {
		v := make([]int32, 24)
		for i := range v {
			v[i] = int32(i)
		}
		return v
	}())
	p, err := Transpose(New, a, []int{2, 0, 1})
	if err != nil || !p.Shape().Equal(Shape{4, 2, 3}) {
		t.Fatalf("perm transpose = %v, %v", p.Shape(), err)
	}
	// p[i,j,k] == a[j,k,i]
	if p.IntAt(p.Shape().Offset(1, 0, 2)) != a.IntAt(a.Shape().Offset(0, 2, 1)) {
		t.Error("perm transpose data wrong")
	}
	if _, err := Transpose(New, a, []int{0, 0, 1}); err == nil {
		t.Error("non-permutation accepted")
	}
}

func TestConcatSplitRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		rows := 1 + int(uint(seed)%5)
		c1 := 1 + int(uint(seed/5)%4)
		c2 := 1 + int(uint(seed/20)%4)
		a := rng.Uniform(Float32, Shape{rows, c1}, -1, 1)
		b := rng.Uniform(Float32, Shape{rows, c2}, -1, 1)
		cat, err := Concat(New, []*Tensor{a, b}, 1)
		if err != nil {
			return false
		}
		parts, err := Split(New, cat, 1, []int{c1, c2})
		if err != nil {
			return false
		}
		return parts[0].Equal(a) && parts[1].Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConcatAxis0(t *testing.T) {
	a := FromFloat32s(Shape{1, 2}, []float32{1, 2})
	b := FromFloat32s(Shape{2, 2}, []float32{3, 4, 5, 6})
	cat, err := Concat(New, []*Tensor{a, b}, 0)
	if err != nil || !cat.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("Concat = %v, %v", cat, err)
	}
	if cat.Float32s()[2] != 3 || cat.Float32s()[5] != 6 {
		t.Errorf("Concat data = %v", cat.Float32s())
	}
	if _, err := Concat(New, []*Tensor{a, FromFloat32s(Shape{1, 3}, []float32{1, 2, 3})}, 0); err == nil {
		t.Error("Concat dim mismatch accepted")
	}
}

func TestSliceT(t *testing.T) {
	a := FromInt32s(Shape{3, 4}, func() []int32 {
		v := make([]int32, 12)
		for i := range v {
			v[i] = int32(i)
		}
		return v
	}())
	s, err := SliceT(New, a, []int{1, 1}, []int{2, 2})
	if err != nil || !s.Shape().Equal(Shape{2, 2}) {
		t.Fatalf("Slice = %v, %v", s, err)
	}
	if got := s.Int32s(); got[0] != 5 || got[1] != 6 || got[2] != 9 || got[3] != 10 {
		t.Errorf("Slice data = %v", got)
	}
	full, err := SliceT(New, a, []int{0, 2}, []int{-1, -1})
	if err != nil || !full.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("Slice -1 = %v, %v", full, err)
	}
	if _, err := SliceT(New, a, []int{2, 2}, []int{2, 2}); err == nil {
		t.Error("out-of-bounds slice accepted")
	}
}

func TestPadAndTile(t *testing.T) {
	a := FromFloat32s(Shape{1, 2}, []float32{1, 2})
	p, err := Pad(New, a, [][2]int{{1, 0}, {0, 1}})
	if err != nil || !p.Shape().Equal(Shape{2, 3}) {
		t.Fatalf("Pad = %v, %v", p, err)
	}
	want := []float32{0, 0, 0, 1, 2, 0}
	for i, v := range p.Float32s() {
		if v != want[i] {
			t.Fatalf("Pad data = %v", p.Float32s())
		}
	}
	tl, err := Tile(New, a, []int{2, 2})
	if err != nil || !tl.Shape().Equal(Shape{2, 4}) {
		t.Fatalf("Tile = %v, %v", tl, err)
	}
	if tl.Float32s()[3] != 2 || tl.Float32s()[4] != 1 {
		t.Errorf("Tile data = %v", tl.Float32s())
	}
}

func TestOneHot(t *testing.T) {
	idx := FromInt32s(Shape{3}, []int32{0, 2, 7})
	oh, err := OneHot(New, idx, 3, Float32)
	if err != nil || !oh.Shape().Equal(Shape{3, 3}) {
		t.Fatalf("OneHot = %v, %v", oh, err)
	}
	got := oh.Float32s()
	if got[0] != 1 || got[5] != 1 {
		t.Errorf("OneHot data = %v", got)
	}
	// Out-of-range index yields a zero row.
	if got[6] != 0 && got[7] != 0 && got[8] != 0 {
		t.Errorf("OneHot out-of-range row should be zero: %v", got[6:])
	}
}

func TestGather(t *testing.T) {
	params := FromFloat32s(Shape{4, 2}, []float32{0, 1, 10, 11, 20, 21, 30, 31})
	idx := FromInt32s(Shape{3}, []int32{2, 0, 2})
	out, err := Gather(New, params, idx)
	if err != nil || !out.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("Gather = %v, %v", out, err)
	}
	want := []float32{20, 21, 0, 1, 20, 21}
	for i, v := range out.Float32s() {
		if v != want[i] {
			t.Fatalf("Gather data = %v", out.Float32s())
		}
	}
	if _, err := Gather(New, params, FromInt32s(Shape{1}, []int32{9})); err == nil {
		t.Error("out-of-range gather accepted")
	}
}

func TestScatterAddAccumulatesDuplicates(t *testing.T) {
	params := New(Float32, Shape{3, 2})
	idx := FromInt32s(Shape{3}, []int32{1, 1, 0})
	upd := FromFloat32s(Shape{3, 2}, []float32{1, 1, 2, 2, 5, 5})
	if err := ScatterAddInPlace(params, idx, upd); err != nil {
		t.Fatal(err)
	}
	got := params.Float32s()
	if got[0] != 5 || got[2] != 3 || got[3] != 3 || got[4] != 0 {
		t.Errorf("ScatterAdd = %v", got)
	}
	if err := ScatterSubInPlace(params, FromInt32s(Shape{1}, []int32{0}), FromFloat32s(Shape{1, 2}, []float32{5, 5})); err != nil {
		t.Fatal(err)
	}
	if params.Float32s()[0] != 0 {
		t.Errorf("ScatterSub = %v", params.Float32s())
	}
}

func TestGatherScatterInverseProperty(t *testing.T) {
	// Property: scatter-adding gathered rows at the same unique indices
	// doubles exactly those rows.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		rows := 3 + int(uint(seed)%5)
		params := rng.Uniform(Float32, Shape{rows, 3}, -2, 2)
		perm := rng.Perm(rows)
		take := perm.Int32s()[:rows/2+1]
		idx := FromInt32s(Shape{len(take)}, append([]int32(nil), take...))
		g, err := Gather(New, params, idx)
		if err != nil {
			return false
		}
		doubled := params.Clone()
		if err := ScatterAddInPlace(doubled, idx, g); err != nil {
			return false
		}
		taken := map[int32]bool{}
		for _, i := range take {
			taken[i] = true
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < 3; c++ {
				want := params.Float32s()[r*3+c]
				if taken[int32(r)] {
					want *= 2
				}
				if math.Abs(float64(doubled.Float32s()[r*3+c]-want)) > 1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDynamicPartitionStitchRoundTripProperty(t *testing.T) {
	// Property (Figure 3 invariant): Stitch(Part(rowIDs, p), Part(data, p))
	// reconstructs data for any labeling p.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		rows := 1 + int(uint(seed)%8)
		shards := 1 + int(uint(seed/8)%4)
		data := rng.Uniform(Float32, Shape{rows, 2}, -1, 1)
		labels := rng.UniformInt(Int32, Shape{rows}, shards)
		parts, err := DynamicPartition(New, data, labels, shards)
		if err != nil {
			return false
		}
		ids := New(Int32, Shape{rows})
		for i := range ids.Int32s() {
			ids.Int32s()[i] = int32(i)
		}
		idxs, err := DynamicPartition(New, ids, labels, shards)
		if err != nil {
			return false
		}
		back, err := DynamicStitch(New, idxs, parts)
		return err == nil && back.Equal(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDynamicPartitionErrors(t *testing.T) {
	data := New(Float32, Shape{2, 2})
	bad := FromInt32s(Shape{2}, []int32{0, 5})
	if _, err := DynamicPartition(New, data, bad, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := DynamicPartition(New, data, FromInt32s(Shape{3}, []int32{0, 0, 0}), 2); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestUnsortedSegmentSum(t *testing.T) {
	data := FromFloat32s(Shape{3, 2}, []float32{1, 1, 2, 2, 4, 4})
	ids := FromInt32s(Shape{3}, []int32{1, 1, 0})
	out, err := UnsortedSegmentSum(New, data, ids, 3)
	if err != nil || !out.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("UnsortedSegmentSum = %v, %v", out, err)
	}
	got := out.Float32s()
	if got[0] != 4 || got[2] != 3 || got[4] != 0 {
		t.Errorf("segment sums = %v", got)
	}
}

func TestSerializeRoundTripAllTypes(t *testing.T) {
	rng := NewRNG(3)
	tensors := []*Tensor{
		rng.Uniform(Float32, Shape{3, 2}, -10, 10),
		rng.Uniform(Float64, Shape{2}, -10, 10),
		rng.UniformInt(Int32, Shape{5}, 100),
		rng.UniformInt(Int64, Shape{1, 4}, 1000),
		FromBools(Shape{3}, []bool{true, false, true}),
		FromStrings(Shape{2}, []string{"hello", "world with spaces"}),
		Scalar(3.5),
	}
	for _, orig := range tensors {
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo(%v): %v", orig, err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("ReadFrom(%v): %v", orig, err)
		}
		if !back.Equal(orig) {
			t.Errorf("round trip changed %v into %v", orig, back)
		}
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("short stream accepted")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte{99, 0, 0, 0, 0})); err == nil {
		t.Error("bad dtype accepted")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Normal(Float32, Shape{10}, 0, 1)
	b := NewRNG(42).Normal(Float32, Shape{10}, 0, 1)
	if !a.Equal(b) {
		t.Error("same seed produced different streams")
	}
	c := NewRNG(43).Normal(Float32, Shape{10}, 0, 1)
	if a.Equal(c) {
		t.Error("different seeds produced identical streams")
	}
}

func TestTruncatedNormalBounds(t *testing.T) {
	tn := NewRNG(5).TruncatedNormal(Float32, Shape{1000}, 0, 1)
	for _, v := range tn.Float32s() {
		if math.Abs(float64(v)) > 2 {
			t.Fatalf("truncated normal produced %g", v)
		}
	}
}

func TestLogUniformSampler(t *testing.T) {
	rng := NewRNG(11)
	ids, expected := rng.LogUniformSample(1000, 40000)
	counts := map[int32]int{}
	for _, id := range ids.Int32s() {
		if id < 0 || id >= 40000 {
			t.Fatalf("sample %d out of range", id)
		}
		counts[id]++
	}
	// The log-uniform distribution strongly favors small ids.
	low, high := 0, 0
	for id, c := range counts {
		if id < 100 {
			low += c
		} else if id > 20000 {
			high += c
		}
	}
	if low <= high {
		t.Errorf("log-uniform sampler not skewed: low=%d high=%d", low, high)
	}
	for _, e := range expected.Float32s() {
		if e <= 0 || e > 1000 {
			t.Fatalf("expected count %g out of range", e)
		}
	}
}

func TestTensorString(t *testing.T) {
	long := New(Float32, Shape{100})
	s := long.String()
	if len(s) == 0 || len(s) > 200 {
		t.Errorf("String() = %q", s)
	}
	_ = FromStrings(Shape{1}, []string{"x"}).String()
	_ = FromBools(Shape{1}, []bool{true}).String()
}

func TestAllClose(t *testing.T) {
	a := FromFloat32s(Shape{2}, []float32{1, 2})
	b := FromFloat32s(Shape{2}, []float32{1.0000001, 2.0000001})
	if !a.AllClose(b, 1e-5, 1e-5) {
		t.Error("close tensors reported far")
	}
	c := FromFloat32s(Shape{2}, []float32{1.1, 2})
	if a.AllClose(c, 1e-5, 1e-5) {
		t.Error("far tensors reported close")
	}
	n := FromFloat32s(Shape{2}, []float32{float32(math.NaN()), 2})
	if a.AllClose(n, 1, 1) {
		t.Error("NaN reported close")
	}
}

func TestFillAndScalarHelpers(t *testing.T) {
	f := Fill(New, Float32, Shape{2, 2}, 3)
	for _, v := range f.Float32s() {
		if v != 3 {
			t.Fatal("Fill wrong")
		}
	}
	if ScalarInt(5).IntAt(0) != 5 {
		t.Error("ScalarInt wrong")
	}
	if !ScalarBool(true).Bools()[0] {
		t.Error("ScalarBool wrong")
	}
	if ScalarString("a").Strings()[0] != "a" {
		t.Error("ScalarString wrong")
	}
	if ScalarOf(Int64, 9).IntAt(0) != 9 {
		t.Error("ScalarOf wrong")
	}
}

func TestMatMulF64TransposedVariants(t *testing.T) {
	rng := NewRNG(3)
	// op(a) is [4,5], op(b) is [5,6] in every transpose combination; every
	// variant must agree with the plain product.
	a := rng.Uniform(Float64, Shape{4, 5}, -1, 1)
	b := rng.Uniform(Float64, Shape{5, 6}, -1, 1)
	want, err := MatMul(a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	aT, err := Transpose(New, a, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	bT, err := Transpose(New, b, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		x, y   *Tensor
		ta, tb bool
	}{
		{"ta", aT, b, true, false},
		{"tb", a, bT, false, true},
		{"ta-tb", aT, bT, true, true},
	}
	for _, c := range cases {
		got, err := MatMul(c.x, c.y, c.ta, c.tb)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < want.NumElements(); i++ {
			if math.Abs(got.FloatAt(i)-want.FloatAt(i)) > 1e-9 {
				t.Fatalf("%s diverges at %d: %g vs %g", c.name, i, got.FloatAt(i), want.FloatAt(i))
			}
		}
	}
}

func TestMatMulF64LargeParallelMatchesSerial(t *testing.T) {
	// Big enough to cross matmulParallelThreshold and exercise the float64
	// row-sharded fan-out.
	rng := NewRNG(5)
	a := rng.Uniform(Float64, Shape{91, 47}, -1, 1)
	b := rng.Uniform(Float64, Shape{47, 73}, -1, 1)
	got, err := MatMul(a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Float64, Shape{91, 73})
	for i := 0; i < 91; i++ {
		for p := 0; p < 47; p++ {
			av := a.Float64s()[i*47+p]
			for j := 0; j < 73; j++ {
				ref.Float64s()[i*73+j] += av * b.Float64s()[p*73+j]
			}
		}
	}
	for i := 0; i < ref.NumElements(); i++ {
		if math.Abs(got.FloatAt(i)-ref.FloatAt(i)) > 1e-9 {
			t.Fatalf("parallel f64 matmul diverges at %d: %g vs %g", i, got.FloatAt(i), ref.FloatAt(i))
		}
	}
}

func TestBatchMatMulParallelMatchesSerial(t *testing.T) {
	// A batch large enough to cross the parallel threshold at the batch
	// level; every batch is checked against an independent serial product.
	const batch, m, k, n = 16, 9, 11, 13
	for _, dt := range []DType{Float32, Float64} {
		rng := NewRNG(7)
		a := rng.Uniform(dt, Shape{batch, m, k}, -1, 1)
		b := rng.Uniform(dt, Shape{batch, k, n}, -1, 1)
		out, err := BatchMatMul(New, a, b)
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if !out.Shape().Equal(Shape{batch, m, n}) {
			t.Fatalf("%v: shape %v", dt, out.Shape())
		}
		for bi := 0; bi < batch; bi++ {
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					var acc float64
					for p := 0; p < k; p++ {
						acc += a.FloatAt(bi*m*k+i*k+p) * b.FloatAt(bi*k*n+p*n+j)
					}
					got := out.FloatAt(bi*m*n + i*n + j)
					tol := 1e-3
					if dt == Float64 {
						tol = 1e-9
					}
					if math.Abs(got-acc) > tol {
						t.Fatalf("%v batch %d (%d,%d): %g vs %g", dt, bi, i, j, got, acc)
					}
				}
			}
		}
	}
}
