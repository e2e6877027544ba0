package tensor

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestDenormalOperandsDoNotStall times the training step's products on
// velocities that have decayed into stuck denormals — k·2⁻¹⁴⁹ for k ≤ 4,
// which 0.9·x rounds back to itself, so a dead unit's velocity never reaches
// zero — against the same kernels on ordinary values. A float32 MULSS whose
// result is denormal takes a microcode assist (~40 ns an element on the
// guest, against ~0.4 ns); the float64 product the loops take instead costs
// the same on every input. (A denormal squared is plain zero and takes none,
// so Square is timed on values whose squares are denormal.) The least of
// five timings on each side must be within 3× of the other.
func TestDenormalOperandsDoNotStall(t *testing.T) {
	const n = 64 << 10
	stuck, tiny, normal := New(Float32, Shape{n}), New(Float32, Shape{n}), New(Float32, Shape{n})
	sv, tv, nv := stuck.Float32s(), tiny.Float32s(), normal.Float32s()
	for i := range sv {
		sv[i] = math.Float32frombits(uint32(1 + i%4))
		nv[i] = 1 + float32(i%7)/8
		tv[i] = nv[i] * 0x1p-70
	}
	decay, rate := Scalar(0.9), Scalar(0.05)
	decays := Fill(New, Float32, Shape{n}, 0.9)
	dst := New(Float32, Shape{n})
	into := func(DType, Shape) *Tensor { return dst }
	zero, ones := New(Float32, Shape{n}), Fill(New, Float32, Shape{n}, 1)
	kernels := []struct {
		name string
		slow *Tensor
		run  func(x *Tensor) error
	}{
		{"Mul same shape", stuck, func(x *Tensor) error { _, err := Binary(into, OpMul, x, decays); return err }},
		{"Mul scalar left", stuck, func(x *Tensor) error { _, err := Binary(into, OpMul, decay, x); return err }},
		{"Mul scalar right", stuck, func(x *Tensor) error { _, err := Binary(into, OpMul, x, decay); return err }},
		{"Square", tiny, func(x *Tensor) error { _, err := Unary(into, OpSquare, x); return err }},
		{"ApplyMomentum", stuck, func(x *Tensor) error {
			// A dead unit's gradient is exactly zero, so a stuck velocity
			// stays stuck from one timing to the next.
			grad := zero
			if x == normal {
				grad = ones
			}
			_, err := ApplyMomentum(New, ones, x, rate, grad, decay)
			return err
		}},
	}
	for _, k := range kernels {
		timed := func(x *Tensor) time.Duration {
			t0 := time.Now()
			for i := 0; i < 4; i++ {
				if err := k.run(x); err != nil {
					t.Fatalf("%s: %v", k.name, err)
				}
			}
			return time.Since(t0)
		}
		// Alternated, so a slow spell of the host lands on both sides.
		onSlow, onNormal := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			onSlow, onNormal = min(onSlow, timed(k.slow)), min(onNormal, timed(normal))
		}
		ratio := float64(onSlow) / float64(onNormal)
		t.Logf("%-16s denormal products %v, normal values %v (%.2f×)", k.name, onSlow/4, onNormal/4, ratio)
		if ratio > 3 {
			t.Errorf("%s over %d denormal products takes %.1f× the time on normal values (budget 3×): a float32 product is back on the assisted path", k.name, n, ratio)
		}
	}
}

// momentumInputs fills w, accum and grad with what a Momentum step meets:
// ordinary values; ±0, ±Inf and two NaNs in any operand; velocities stuck at
// ±k·2⁻¹⁴⁹ under a zero gradient; and a parameter one step of its float32
// spacing away from lr·accum′, on operands small enough that w − lr·accum′
// lands denormal. The NaNs differ in sign and payload, so a loop that takes
// an operation's operands in another order than momentumLoop keeps another
// payload and shows.
func momentumInputs(rng *splitmix, w, accum, grad []float32, lr, mu float32) {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc01234)}
	ordinary := func() float32 { return float32(int64(rng.next()>>40)-1<<23) / (1 << 20) }
	for i := range w {
		w[i], accum[i], grad[i] = ordinary(), ordinary(), ordinary()
		switch r := rng.next(); r % 4 {
		case 1:
			for _, v := range []*float32{&w[i], &accum[i], &grad[i]} {
				if r = r >> 3; r&1 == 0 {
					*v = specials[r>>1%uint64(len(specials))]
				}
			}
		case 2:
			accum[i] = math.Float32frombits(uint32(1+r>>2%4) | uint32(r>>4&1)<<31)
			grad[i] = specials[r>>5&1]
		case 3:
			accum[i], grad[i] = accum[i]*0x1p-120, grad[i]*0x1p-120
			p := float32(float64(float32(float64(accum[i])*float64(mu))+grad[i]) * float64(lr))
			w[i] = math.Nextafter32(p, float32(math.Inf(int(r>>2&1)*2-1)))
		}
	}
}

// TestMomentumKernelsMatchLoop holds the float32 loop ApplyMomentum runs —
// the AVX2 assembly where TestAssemblyKernelsAreInstalled says so — to
// momentumLoop bit for bit, in out and in the rewritten accum, over every
// length up to 40 (so every tail the eight-wide loop leaves) and the six
// parameter sizes of the benchmark's MLP.
func TestMomentumKernelsMatchLoop(t *testing.T) {
	lengths := []int{32768, 256, 65536, 2560, 10}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	rng := splitmix(29)
	for _, sc := range [][2]float32{{0.05, 0.9}, {0.1, 0.99}, {3, 0.5}} {
		lr, mu := sc[0], sc[1]
		for _, n := range lengths {
			w, accum, grad := make([]float32, n), make([]float32, n), make([]float32, n)
			momentumInputs(&rng, w, accum, grad, lr, mu)
			wantAccum, gotAccum := append([]float32(nil), accum...), accum
			want, got := make([]float32, n), make([]float32, n)
			fill(&rng, got, true) // dirty: every element must be overwritten
			momentumLoop(want, w, wantAccum, grad, lr, mu)
			momentumF32(got, w, gotAccum, grad, lr, mu)
			for _, c := range []struct {
				what      string
				got, want []float32
			}{{"out", got, want}, {"accum", gotAccum, wantAccum}} {
				for i := range c.want {
					if math.Float32bits(c.got[i]) != math.Float32bits(c.want[i]) {
						t.Fatalf("lr=%v µ=%v n=%d: %s[%d] = %v (%#x), momentumLoop gives %v (%#x); w=%v grad=%v",
							lr, mu, n, c.what, i, c.got[i], math.Float32bits(c.got[i]), c.want[i], math.Float32bits(c.want[i]), w[i], grad[i])
					}
				}
			}
		}
	}
}

// BenchmarkApplyMomentum times the float32 Momentum loop, momentumLoop
// against the one ApplyMomentum runs (the same function on a build without
// the assembly), at 64 Ki elements and at the 100 864 of the benchmark's MLP.
// Run it as
//
//	go test -run '^$' -bench ApplyMomentum -cpu 1 ./internal/tensor
func BenchmarkApplyMomentum(b *testing.B) {
	for _, n := range []int{64 << 10, 100864} {
		w, accum, grad, out := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
		rng := splitmix(31)
		for _, v := range [][]float32{w, accum, grad} {
			fill(&rng, v, false)
		}
		for _, loop := range []struct {
			name string
			run  func(out, w, accum, grad []float32, lr, momentum float32)
		}{{"go", momentumLoop[float32]}, {"installed", momentumF32}} {
			b.Run(fmt.Sprintf("%d/%s", n, loop.name), func(b *testing.B) {
				for b.Loop() {
					loop.run(out, w, accum, grad, 0.05, 0.9)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
			})
		}
	}
}

// TestApplyMomentumRejectsMismatches checks the fused step refuses operands
// the unfused chain could not have combined either, before writing anything.
func TestApplyMomentumRejectsMismatches(t *testing.T) {
	w, accum, grad := Fill(New, Float32, Shape{2, 3}, 1), Fill(New, Float32, Shape{2, 3}, 2), Fill(New, Float32, Shape{2, 3}, 3)
	lr, mu := Scalar(0.1), Scalar(0.9)
	for name, args := range map[string][5]*Tensor{
		"grad shape":      {w, accum, lr, Fill(New, Float32, Shape{3, 2}, 3), mu},
		"accum shape":     {w, Fill(New, Float32, Shape{6}, 2), lr, grad, mu},
		"grad dtype":      {w, accum, lr, Fill(New, Float64, Shape{2, 3}, 3), mu},
		"lr not a scalar": {w, accum, Fill(New, Float32, Shape{2}, 0.1), grad, mu},
		"integer":         {Fill(New, Int32, Shape{1}, 1), Fill(New, Int32, Shape{1}, 1), ScalarOf(Int32, 1), Fill(New, Int32, Shape{1}, 1), ScalarOf(Int32, 1)},
	} {
		if _, err := ApplyMomentum(New, args[0], args[1], args[2], args[3], args[4]); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	for _, x := range accum.Float32s() {
		if x != 2 {
			t.Fatalf("a refused step wrote accum: %v", accum)
		}
	}
}
