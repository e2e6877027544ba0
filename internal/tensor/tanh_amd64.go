//go:build amd64 && !noasm

package tensor

// tanhF32AVX2 is tanhLoop four float64 lanes at a time (tanh_amd64.s);
// len(src) must be a multiple of 4.
//
//go:noescape
func tanhF32AVX2(dst, src []float32)

// tanhAVX2 runs the multiple-of-4 prefix in the assembly and the tail in
// tanhLoop.
func tanhAVX2(dst, src []float32) {
	n := len(src) &^ 3
	tanhF32AVX2(dst[:n], src[:n])
	tanhLoop(dst[n:], src[n:])
}

func init() {
	if hasAVX2() {
		tanhF32 = tanhAVX2
	}
}
