//go:build amd64 && !noasm

#include "textflag.h"

// tanhF32AVX2 computes float32(math.Tanh(float64(x))) in four float64 lanes
// by the IEEE operations math.Tanh performs on amd64 — tanh.go's branches,
// with Exp as archExp (math/exp_amd64.s) computes it on a CPU without FMA —
// in the same order and with the same constants, and no fused multiply-add.
// Where archExp takes its FMA path instead, its float64 result can differ in
// the last place, but no float32 rounding of tanh does: make tanh-sweep checks
// all 2³² inputs. Every lane computes both branches; compare masks pick one
// at the end.

// Each constant is a 32-byte symbol of four copies, one YMM operand.
#define Q2(name, o, v) DATA name<>+(o)(SB)/8, $v; DATA name<>+(o+8)(SB)/8, $v
#define CONST(name, v) Q2(name, 0, v); Q2(name, 16, v); GLOBL name<>(SB), RODATA|NOPTR, $32

CONST(abs, 0x7fffffffffffffff)
CONST(one, 1.0)
CONST(two, 2.0)
CONST(small, 0.625)
CONST(halfmaxlog, 4.4014845965556527147994e+01) // 0.5·MAXLOG, halved exactly
CONST(p0, -9.64399179425052238628e-1)           // tanhP, tanhQ
CONST(p1, -9.92877231001918586564e1)
CONST(p2, -1.61468768441708447952e3)
CONST(q0, 1.12811678491632931402e2)
CONST(q1, 2.23548839060100448583e3)
CONST(q2, 4.84406305325125486048e3)
CONST(log2e, 1.4426950408889634073599246810018920)
CONST(ln2u, 0.69314718055966295651160180568695068359375)
CONST(ln2l, 0.28235290563031577122588448175013436025525412068e-12)
CONST(sixteenth, 0.0625)
CONST(e8, 2.4801587301587301587e-5) // exprodata
CONST(e7, 1.9841269841269841270e-4)
CONST(e6, 1.3888888888888888889e-3)
CONST(e5, 8.3333333333333333333e-3)
CONST(e4, 4.1666666666666666667e-2)
CONST(e3, 1.6666666666666666667e-1)
CONST(half, 0.5)
CONST(bias, 0x000003ff000003ff) // the exponent bias in int32 lanes

// RATIONAL is tanh.go's branch for |x| < 0.625: r = x + ((x·s)·P(s))/Q(s),
// s = x·x. At x = −0 it gives +0; the caller's sign OR restores −0.
#define RATIONAL(x, s, p, q, r) \
	VMULPD x, x, s          \
	VMULPD p0<>(SB), s, p   \
	VADDPD p1<>(SB), p, p   \
	VMULPD s, p, p          \
	VADDPD p2<>(SB), p, p   \
	VADDPD q0<>(SB), s, q   \
	VMULPD s, q, q          \
	VADDPD q1<>(SB), q, q   \
	VMULPD s, q, q          \
	VADDPD q2<>(SB), q, q   \
	VMULPD s, x, r          \
	VMULPD p, r, r          \
	VDIVPD q, r, r          \
	VADDPD x, r, r

// HORNER is one step of archExp's Taylor series: p = p·a + c.
#define HORNER(c, a, p) \
	VMULPD a, p, p \
	VADDPD c<>(SB), p, p

// SQUARING is one of archExp's four t = (t+2)·t steps, which square 1+t.
#define SQUARING(a, p) \
	VADDPD two<>(SB), a, p \
	VMULPD p, a, a

// EXPTANH is the branch above it: given a = 2|x| and ki = n, a·LOG2E rounded
// to the nearest int32, it leaves 1 − 2/(e+1) in a, e = Exp(2|x|) by archExp's
// steps (n ≥ 2 here, so its ldexp is the plain product by 2ⁿ).
#define EXPTANH(a, k, ki, kw, p) \
	VCVTDQ2PD ki, k                 \
	VMULPD    ln2u<>(SB), k, p      \
	VSUBPD    p, a, a               \
	VMULPD    ln2l<>(SB), k, p      \
	VSUBPD    p, a, a               \
	VMULPD    sixteenth<>(SB), a, a \
	VMULPD    e8<>(SB), a, p        \
	VADDPD    e7<>(SB), p, p        \
	HORNER(e6, a, p)                \
	HORNER(e5, a, p)                \
	HORNER(e4, a, p)                \
	HORNER(e3, a, p)                \
	HORNER(half, a, p)              \
	HORNER(one, a, p)               \
	VMULPD    p, a, a               \
	SQUARING(a, p)                  \
	SQUARING(a, p)                  \
	SQUARING(a, p)                  \
	SQUARING(a, p)                  \
	VADDPD    one<>(SB), a, a       \
	VPADDD    bias<>(SB), ki, ki    \
	VPMOVZXDQ ki, kw                \
	VPSLLQ    $52, kw, kw           \
	VMULPD    kw, a, a              \
	VADDPD    one<>(SB), a, a       \
	VMOVUPD   two<>(SB), p          \
	VDIVPD    a, p, p               \
	VMOVUPD   one<>(SB), a          \
	VSUBPD    p, a, a

// func tanhF32AVX2(dst, src []float32)
//
// len(src) must be a multiple of 4, and dst at least as long. The compares
// are ordered, so a NaN stays on RATIONAL, which keeps its payload; above
// 0.5·MAXLOG, ±Inf included, the result is 1; x's sign is ORed in last.
TEXT ·tanhF32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	SHRQ $2, CX
	JZ   done
loop:
	VCVTPS2PD (SI)(AX*1), Y0
	VANDPD    abs<>(SB), Y0, Y1
	RATIONAL(Y0, Y2, Y3, Y4, Y5)
	VADDPD     Y1, Y1, Y6
	VMULPD     log2e<>(SB), Y6, Y7
	VCVTPD2DQY Y7, X8
	EXPTANH(Y6, Y7, X8, Y8, Y9)
	VCMPPD     $0x1d, small<>(SB), Y1, Y2      // ≥, ordered
	VBLENDVPD  Y2, Y6, Y5, Y5
	VCMPPD     $0x1e, halfmaxlog<>(SB), Y1, Y2 // >, ordered
	VBLENDVPD  Y2, one<>(SB), Y5, Y5
	VXORPD     Y1, Y0, Y2
	VORPD      Y2, Y5, Y5
	VCVTPD2PSY Y5, X5
	VMOVUPS    X5, (DI)(AX*1)
	ADDQ       $16, AX
	DECQ       CX
	JNZ        loop
done:
	VZEROUPPER
	RET
