package tensor

import (
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
	decays := Fill(Float32, Shape{n}, 0.9)
	dst := New(Float32, Shape{n})
	zero, ones := New(Float32, Shape{n}), Fill(Float32, Shape{n}, 1)
	kernels := []struct {
		name string
		slow *Tensor
		run  func(x *Tensor) error
	}{
		{"Mul same shape", stuck, func(x *Tensor) error { _, err := BinaryInto(dst, OpMul, x, decays); return err }},
		{"Mul scalar left", stuck, func(x *Tensor) error { _, err := BinaryInto(dst, OpMul, decay, x); return err }},
		{"Mul scalar right", stuck, func(x *Tensor) error { _, err := BinaryInto(dst, OpMul, x, decay); return err }},
		{"Square", tiny, func(x *Tensor) error { _, err := UnaryInto(dst, OpSquare, x); return err }},
		{"ApplyMomentum", stuck, func(x *Tensor) error {
			// A dead unit's gradient is exactly zero, so a stuck velocity
			// stays stuck from one timing to the next.
			grad := zero
			if x == normal {
				grad = ones
			}
			_, err := ApplyMomentum(ones, x, rate, grad, decay)
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

// TestApplyMomentumRejectsMismatches checks the fused step refuses operands
// the unfused chain could not have combined either, before writing anything.
func TestApplyMomentumRejectsMismatches(t *testing.T) {
	w, accum, grad := Fill(Float32, Shape{2, 3}, 1), Fill(Float32, Shape{2, 3}, 2), Fill(Float32, Shape{2, 3}, 3)
	lr, mu := Scalar(0.1), Scalar(0.9)
	for name, args := range map[string][5]*Tensor{
		"grad shape":      {w, accum, lr, Fill(Float32, Shape{3, 2}, 3), mu},
		"accum shape":     {w, Fill(Float32, Shape{6}, 2), lr, grad, mu},
		"grad dtype":      {w, accum, lr, Fill(Float64, Shape{2, 3}, 3), mu},
		"lr not a scalar": {w, accum, Fill(Float32, Shape{2}, 0.1), grad, mu},
		"integer":         {Fill(Int32, Shape{1}, 1), Fill(Int32, Shape{1}, 1), ScalarOf(Int32, 1), Fill(Int32, Shape{1}, 1), ScalarOf(Int32, 1)},
	} {
		if _, err := ApplyMomentum(args[0], args[1], args[2], args[3], args[4]); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	for _, x := range accum.Float32s() {
		if x != 2 {
			t.Fatalf("a refused step wrote accum: %v", accum)
		}
	}
}
