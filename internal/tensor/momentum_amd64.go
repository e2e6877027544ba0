//go:build amd64 && !noasm

package tensor

// momentumF32AVX2 is momentumLoop[float32] eight elements at a time
// (momentum_amd64.s); len(out) must be a multiple of 8.
//
//go:noescape
func momentumF32AVX2(out, w, accum, grad []float32, lr, momentum float64)

// momentumAVX2 runs the multiple-of-8 prefix in the assembly and the tail in
// momentumLoop.
func momentumAVX2(out, w, accum, grad []float32, lr, momentum float32) {
	n := len(out) &^ 7
	momentumF32AVX2(out[:n], w[:n], accum[:n], grad[:n], float64(lr), float64(momentum))
	momentumLoop(out[n:], w[n:], accum[n:], grad[n:], lr, momentum)
}

func init() {
	if hasAVX2() {
		momentumF32 = momentumAVX2
	}
}
