package tensor

import "fmt"

// ApplyMomentum is one dense Momentum step in a single pass:
//
//	accum ← momentum·accum + grad;  w′ = w − lr·accum
//
// accum is rewritten in place and w′ is returned in a buffer from alloc; w is
// not written. lr and momentum hold one element each. Every element is rounded
// exactly as the unfused Mul, Add, Mul, Sub chain rounds it (each product in
// float64 and rounded once, as binaryLoop takes it), so the fused step and
// the chain agree to the bit.
func ApplyMomentum(alloc Alloc, w, accum, lr, grad, momentum *Tensor) (*Tensor, error) {
	dt := w.dtype
	for _, t := range []*Tensor{accum, lr, grad, momentum} {
		if t.dtype != dt {
			return nil, fmt.Errorf("tensor: ApplyMomentum dtype mismatch %v vs %v", dt, t.dtype)
		}
	}
	if !accum.shape.Equal(w.shape) || !grad.shape.Equal(w.shape) {
		return nil, fmt.Errorf("tensor: ApplyMomentum shapes: var %v, accum %v, grad %v", w.shape, accum.shape, grad.shape)
	}
	if lr.NumElements() != 1 || momentum.NumElements() != 1 {
		return nil, fmt.Errorf("tensor: ApplyMomentum lr %v and momentum %v must be one element each", lr.shape, momentum.shape)
	}
	if !dt.IsFloat() {
		return nil, fmt.Errorf("tensor: ApplyMomentum on %v, want a float dtype", dt)
	}
	out := alloc(dt, w.shape)
	switch dt {
	case Float32:
		momentumF32(out.Float32s(), w.Float32s(), accum.Float32s(), grad.Float32s(), lr.Float32s()[0], momentum.Float32s()[0])
	default:
		momentumLoop(out.Float64s(), w.Float64s(), accum.Float64s(), grad.Float64s(), lr.Float64s()[0], momentum.Float64s()[0])
	}
	return out, nil
}

// momentumF32 is the float32 loop ApplyMomentum runs: momentumLoop unless the
// init in momentum_amd64.go installed the AVX2 one, which gives the same bits.
var momentumF32 = momentumLoop[float32]

// momentumLoop is ApplyMomentum's element loop. The explicit conversions are
// the chain's roundings (and keep GOAMD64=v3 from fusing a product into the
// following sum); the scalars are widened once, before the loop, because a
// conversion inside it merges into its destination register and so chains
// every iteration to the one before.
func momentumLoop[T float](out, w, accum, grad []T, lr, momentum T) {
	lr64, mu64 := float64(lr), float64(momentum)
	w, accum, grad = w[:len(out)], accum[:len(out)], grad[:len(out)]
	for i := range out {
		v := T(float64(accum[i])*mu64) + grad[i]
		accum[i] = v
		out[i] = w[i] - T(float64(v)*lr64)
	}
}
