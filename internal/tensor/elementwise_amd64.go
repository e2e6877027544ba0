//go:build amd64 && !noasm

package tensor

// The float32 element-wise runs a sync round makes over its weights, eight
// lanes at a time (elementwise_amd64.s). Each takes slices whose length is a
// multiple of 8, and gives the bits of the Go loop it stands in for.

// addF32AVX2, subF32AVX2 and mulF32AVX2 are binaryLoop's Add, Sub and Mul of
// two runs as long as out; the product is widened to float64 and rounded
// once, as binaryLoop takes it.
//
//go:noescape
func addF32AVX2(out, a, b []float32)

//go:noescape
func subF32AVX2(out, a, b []float32)

//go:noescape
func mulF32AVX2(out, a, b []float32)

// scaleF32AVX2 is out[i] = float32(float64(a[i])·s): binaryLoop's Mul by a
// scalar, and its Div by a power of two with s the exact reciprocal.
//
//go:noescape
func scaleF32AVX2(out, a []float32, s float64)

// reluF32AVX2 and reluGradF32AVX2 are reluLoop and reluGradLoop.
//
//go:noescape
func reluF32AVX2(out, a []float32)

//go:noescape
func reluGradF32AVX2(out, grad, features []float32)

// sumF32AVX2 is sumLoop[float32].
//
//go:noescape
func sumF32AVX2(acc []float64, x []float32)

// binaryAVX2 is binaryLoop[float32] with the multiple-of-8 prefix of the runs
// above in the assembly; every other run, and each tail, is binaryLoop's.
func binaryAVX2(op BinaryOp, out, a, b []float32) {
	n := len(out) &^ 7
	ma, mb := stepMask(len(a), len(out)), stepMask(len(b), len(out))
	if x, s, ok := scaling(op, a, b, ma, mb); ok {
		scaleF32AVX2(out[:n], x[:n], s)
		scaleLoop(out[n:], x[n:], s)
		return
	}
	switch {
	case ma&mb == 0:
		n = 0
	case op == OpAdd:
		addF32AVX2(out[:n], a[:n], b[:n])
	case op == OpSub:
		subF32AVX2(out[:n], a[:n], b[:n])
	case op == OpMul:
		mulF32AVX2(out[:n], a[:n], b[:n])
	default:
		n = 0
	}
	binaryLoop(op, out[n:], a[n:], b[n:])
}

func reluAVX2(out, a []float32) {
	n := len(a) &^ 7
	reluF32AVX2(out[:n], a[:n])
	reluLoop(out[n:], a[n:])
}

func reluGradAVX2(out, grad, features []float32) {
	n := len(out) &^ 7
	reluGradF32AVX2(out[:n], grad[:n], features[:n])
	reluGradLoop(out[n:], grad[n:], features[n:])
}

func sumAVX2(acc []float64, x []float32) {
	n := len(x) &^ 7
	sumF32AVX2(acc[:n], x[:n])
	sumLoop(acc[n:], x[n:])
}

func init() {
	if hasAVX2() {
		binaryF32, reluF32, reluGradF32, sumF32 = binaryAVX2, reluAVX2, reluGradAVX2, sumAVX2
	}
}
