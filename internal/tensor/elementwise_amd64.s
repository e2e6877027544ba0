//go:build amd64 && !noasm

#include "textflag.h"

// The float32 element-wise kernels of elementwise_amd64.go. Each walks its
// slices eight elements a pass with the byte offset in AX and the pass count
// in CX, and leaves every operation's operands in the order the Go loop it
// stands in for gives them, so that a NaN keeps the same payload. A float32
// product is taken as binaryLoop takes it: both factors widened to float64
// (exact), one VMULPD (exact for two float32 factors, rounded once for a
// float64 scale), one narrowing; no step takes a denormal assist.

// Every kernel: MOVQ n, CX; PASSES; then its loop and END.
#define PASSES \
	XORQ AX, AX \
	SHRQ $3, CX \
	JZ   done

#define END \
	ADDQ $32, AX \
	DECQ CX      \
	JNZ  loop    \
done:            \
	VZEROUPPER   \
	RET

// func addF32AVX2(out, a, b []float32)
TEXT ·addF32AVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	PASSES
loop:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	END

// func subF32AVX2(out, a, b []float32)
TEXT ·subF32AVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	PASSES
loop:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	END

// MUL4 is a·b on the four elements at byte offset off, widened.
#define MUL4(off) \
	VCVTPS2PD  off(SI)(AX*1), Y0 \
	VCVTPS2PD  off(DX)(AX*1), Y1 \
	VMULPD     Y1, Y0, Y0        \
	VCVTPD2PSY Y0, X0            \
	VMOVUPS    X0, off(DI)(AX*1)

// func mulF32AVX2(out, a, b []float32)
TEXT ·mulF32AVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	PASSES
loop:
	MUL4(0)
	MUL4(16)
	END

// SCALE4 is a·s on the four elements at byte offset off, with s in Y15.
#define SCALE4(off) \
	VCVTPS2PD  off(SI)(AX*1), Y0 \
	VMULPD     Y15, Y0, Y0       \
	VCVTPD2PSY Y0, X0            \
	VMOVUPS    X0, off(DI)(AX*1)

// func scaleF32AVX2(out, a []float32, s float64)
TEXT ·scaleF32AVX2(SB), NOSPLIT, $0-56
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y15
	PASSES
loop:
	SCALE4(0)
	SCALE4(16)
	END

// Relu and ReluGrad keep a value where the features are greater than the +0
// in Y15 and give +0 elsewhere: VCMPPS's predicate 0x1e (GT_OQ) is false for
// NaN and for −0, as x > 0 is in Go, and the mask is ANDed into the bits.

// func reluF32AVX2(out, a []float32)
TEXT ·reluF32AVX2(SB), NOSPLIT, $0-48
	MOVQ   out_base+0(FP), DI
	MOVQ   out_len+8(FP), CX
	MOVQ   a_base+24(FP), SI
	VXORPS Y15, Y15, Y15
	PASSES
loop:
	VMOVUPS (SI)(AX*1), Y0
	VCMPPS  $0x1e, Y15, Y0, Y1
	VANDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	END

// func reluGradF32AVX2(out, grad, features []float32)
TEXT ·reluGradF32AVX2(SB), NOSPLIT, $0-72
	MOVQ   out_base+0(FP), DI
	MOVQ   out_len+8(FP), CX
	MOVQ   grad_base+24(FP), SI
	MOVQ   features_base+48(FP), DX
	VXORPS Y15, Y15, Y15
	PASSES
loop:
	VMOVUPS (DX)(AX*1), Y0
	VCMPPS  $0x1e, Y15, Y0, Y1
	VANDPS  (SI)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	END

// SUM4 is acc += float64(x) on the four elements of x at byte offset off,
// whose accumulators sit at byte offset acc.
#define SUM4(off, acc) \
	VCVTPS2PD off(SI)(AX*1), Y0  \
	VMOVUPD   acc(DI)(AX*2), Y1  \
	VADDPD    Y1, Y0, Y0         \
	VMOVUPD   Y0, acc(DI)(AX*2)

// func sumF32AVX2(acc []float64, x []float32)
TEXT ·sumF32AVX2(SB), NOSPLIT, $0-48
	MOVQ acc_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	PASSES
loop:
	SUM4(0, 0)
	SUM4(16, 32)
	END
