//go:build amd64 && !noasm

#include "textflag.h"

// MOMENTUM4 is momentumLoop[float32] on the four elements at byte offset off:
// accum ← float32(float64(accum)·µ) + grad, then out ← w − float32(float64(accum)·lr),
// with µ and lr widened in Y15 and Y14. Each widening is exact and each
// narrowing rounds once, as the Go loop's conversions do; the operands sit in
// the same order, so a NaN keeps the same payload.
#define MOMENTUM4(off) \
	VCVTPS2PD  off(R8)(AX*1), Y0     \
	VMULPD     Y15, Y0, Y0           \
	VCVTPD2PSY Y0, X0                \
	VADDPS     off(R9)(AX*1), X0, X0 \
	VMOVUPS    X0, off(R8)(AX*1)     \
	VCVTPS2PD  X0, Y1                \
	VMULPD     Y14, Y1, Y1           \
	VCVTPD2PSY Y1, X1                \
	VMOVUPS    off(SI)(AX*1), X2     \
	VSUBPS     X1, X2, X2            \
	VMOVUPS    X2, off(DI)(AX*1)

// func momentumF32AVX2(out, w, accum, grad []float32, lr, momentum float64)
//
// len(out) must be a multiple of 8, and w, accum and grad at least as long.
TEXT ·momentumF32AVX2(SB), NOSPLIT, $0-112
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         w_base+24(FP), SI
	MOVQ         accum_base+48(FP), R8
	MOVQ         grad_base+72(FP), R9
	VBROADCASTSD lr+96(FP), Y14
	VBROADCASTSD momentum+104(FP), Y15
	XORQ         AX, AX
	SHRQ         $3, CX
	JZ           done
loop:
	MOMENTUM4(0)
	MOMENTUM4(16)
	ADDQ $32, AX
	DECQ CX
	JNZ  loop
done:
	VZEROUPPER
	RET
