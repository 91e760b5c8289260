// AVX2+FMA four-lane exp, tanh and GELU, bitwise equal to math.Exp,
// math.Tanh and the scalar GELU loop on every lane they finish.
//
// Go's math.Exp on amd64 (src/math/exp_amd64.s) is a scalar port of
// Shibata's SIMD exp ("Efficient evaluation methods of elementary functions
// suitable for SIMD computation", ISC'10). On a CPU with AVX and FMA it
// takes its `avxfma` branch; expcore below is that branch run four lanes
// wide, instruction for instruction: the same constants, k = x·log2(e)
// rounded to nearest even, two fused reduction steps, ×1/16, the seven-FMA
// Taylor chain, four x·(x+2) squarings (the last fused with the +1) and
// 2^k built by integer add and shift. Only lanes on archExp's normal path
// (−1022 ≤ k ≤ 1023) are computed here; k < −1075 (−Inf included) is
// archExp's underflow and gives +0, and everything else (NaN, x > 709.78
// with +Inf, the denormal results) is reported back for scalar math.Exp.
//
// tanhcore evaluates all three of math.tanh's branches on every lane and
// blends them per lane, each branch in Go's evaluation order (amd64 Go
// never fuses a multiply and an add). Its exp argument 2|x| lies in
// [1.25, 88.03] on the lanes that use it, always archExp's normal path.
// tanhLanes runs it over a float64 array; geluLanes runs it between
// widening four float32 inputs to the GELU argument and narrowing y and
// g′, so the whole GELU forward is one pass with no staging.
//
// Every lane op is exact IEEE arithmetic in the scalar code's order; the
// dispatch in expvec_amd64.go runs this only where math.Exp itself takes
// its FMA branch.

#include "textflag.h"

// bcast lays down one float64 (or int64) four times: a 256-bit memory
// operand with the value in every lane.
#define bcast(name, v) \
	DATA name<>+0(SB)/8, v   \
	DATA name<>+8(SB)/8, v   \
	DATA name<>+16(SB)/8, v  \
	DATA name<>+24(SB)/8, v  \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// bcast4 lays down one int32 four times: a 128-bit memory operand.
#define bcast4(name, v) \
	DATA name<>+0(SB)/4, v   \
	DATA name<>+4(SB)/4, v   \
	DATA name<>+8(SB)/4, v   \
	DATA name<>+12(SB)/4, v  \
	GLOBL name<>(SB), RODATA|NOPTR, $16

// exp_amd64.s's constants, spelled as there.
bcast(log2e, $1.4426950408889634073599246810018920)
bcast(ln2u, $0.69314718055966295651160180568695068359375)
bcast(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
bcast(overflow, $7.09782712893384e+02)
bcast(sixteenth, $0.0625)
bcast(c8, $2.4801587301587301587e-5)
bcast(c7, $1.9841269841269841270e-4)
bcast(c6, $1.3888888888888888889e-3)
bcast(c5, $8.3333333333333333333e-3)
bcast(c4, $4.1666666666666666667e-2)
bcast(c3, $1.6666666666666666667e-1)
bcast(half, $0.5)
bcast(one, $1.0)
bcast(two, $2.0)
bcast(bias, $1023)
bcast4(kmin, $-1023)  // k > −1023: not archExp's denormal path
bcast4(kmax, $1024)   // k < 1024: not its overflow
bcast4(kzero, $-1075) // k < −1075: its underflow, +0

// math.tanh's constants: 0.5·MAXLOG, the branch point, tanhP and tanhQ.
bcast(tanhbig, $44.01484596555652714799400000)
bcast(tanhmid, $0.625)
bcast(tp0, $-9.64399179425052238628e-1)
bcast(tp1, $-9.92877231001918586564e1)
bcast(tp2, $-1.61468768441708447952e3)
bcast(tq0, $1.12811678491632931402e2)
bcast(tq1, $2.23548839060100448583e3)
bcast(tq2, $4.84406305325125486048e3)
bcast(signbit, $0x8000000000000000)
bcast(absmask, $0x7fffffffffffffff)

// GELU's constants: 0.044715, 3·0.044715 and √(2/π), spelled as gelu4's.
bcast(gc1, $0.044715)
bcast(gc3, $0.134145)
bcast(s2pi, $0.7978845608028654)

// expcore replaces the four lanes of Y1 with archExp's avxfma result,
// valid on lanes with −1022 ≤ k ≤ 1023. It leaves k (int32) in X3 and
// uses Y2 and Y4 as scratch.
#define expcore \
	VMULPD       log2e<>(SB), Y1, Y2     \
	VCVTPD2DQY   Y2, X3                  \ // k = round-to-even(x·log2e)
	VCVTDQ2PD    X3, Y2                  \
	VFNMADD231PD ln2u<>(SB), Y2, Y1      \ // x −= k·ln2u, fused
	VFNMADD231PD ln2l<>(SB), Y2, Y1      \ // x −= k·ln2l, fused
	VMULPD       sixteenth<>(SB), Y1, Y1 \
	VMOVUPD      c8<>(SB), Y4            \ // Taylor series, Horner, fused
	VFMADD213PD  c7<>(SB), Y1, Y4        \
	VFMADD213PD  c6<>(SB), Y1, Y4        \
	VFMADD213PD  c5<>(SB), Y1, Y4        \
	VFMADD213PD  c4<>(SB), Y1, Y4        \
	VFMADD213PD  c3<>(SB), Y1, Y4        \
	VFMADD213PD  half<>(SB), Y1, Y4      \
	VFMADD213PD  one<>(SB), Y1, Y4       \
	VMULPD       Y4, Y1, Y1              \
	VADDPD       two<>(SB), Y1, Y4       \ // four times x = x·(x+2)
	VMULPD       Y4, Y1, Y1              \
	VADDPD       two<>(SB), Y1, Y4       \
	VMULPD       Y4, Y1, Y1              \
	VADDPD       two<>(SB), Y1, Y4       \
	VMULPD       Y4, Y1, Y1              \
	VADDPD       two<>(SB), Y1, Y4       \
	VFMADD213PD  one<>(SB), Y4, Y1       \ // the last one fused with +1
	VPMOVSXDQ    X3, Y2                  \ // ·2^k: (k+1023) << 52
	VPADDQ       bias<>(SB), Y2, Y2      \
	VPSLLQ       $52, Y2, Y2             \
	VMULPD       Y2, Y1, Y1

// func expLanes(dst, src []float64) uint64
TEXT ·expLanes(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	XORQ CX, CX // lane index, and its bit in the result
	XORQ R8, R8 // lanes left for scalar math.Exp

exp_loop:
	CMPQ CX, DX
	JGE  exp_done
	VMOVUPD (SI)(CX*8), Y0
	VMOVAPD Y0, Y1
	expcore

	// normal = −1023 < k < 1024; ok = normal or k < −1075, and x ≤ 709.78
	// (false for NaN, true for −Inf).
	VPCMPGTD kmin<>(SB), X3, X5
	VMOVDQU  kmax<>(SB), X6
	VPCMPGTD X3, X6, X6
	VPAND    X6, X5, X5
	VMOVDQU  kzero<>(SB), X6
	VPCMPGTD X3, X6, X6
	VPOR     X5, X6, X6
	VPMOVSXDQ X5, Y5
	VPMOVSXDQ X6, Y6
	VCMPPD   $2, overflow<>(SB), Y0, Y7 // LE_OS
	VANDPD   Y7, Y6, Y6
	VANDPD   Y5, Y1, Y1                 // +0 on every lane but normal ones
	VMOVUPD  Y1, (DI)(CX*8)
	VMOVMSKPD Y6, AX
	XORQ     $15, AX
	SHLQ     CX, AX
	ORQ      AX, R8
	ADDQ     $4, CX
	JMP      exp_loop

exp_done:
	VZEROUPPER
	MOVQ R8, ret+48(FP)
	RET

// tanhcore sets Y10 to math.Tanh of the four lanes of Y0. It clobbers
// Y1–Y4 and Y8–Y15; Y0 and Y5–Y7 survive.
#define tanhcore \
	VANDPD  absmask<>(SB), Y0, Y8   \ // z = |x|
	VADDPD  Y8, Y8, Y1              \ // 2·z
	expcore                         \ // Y1 = s = exp(2z)
	\ // |x| < 0.625: s2 = x·x, P = (p0·s2 + p1)·s2 + p2,
	\ // Q = ((s2 + q0)·s2 + q1)·s2 + q2, num = x·s2·P.
	VMULPD  Y0, Y0, Y9              \
	VMULPD  tp0<>(SB), Y9, Y10      \
	VADDPD  tp1<>(SB), Y10, Y10     \
	VMULPD  Y9, Y10, Y10            \
	VADDPD  tp2<>(SB), Y10, Y10     \
	VADDPD  tq0<>(SB), Y9, Y11      \
	VMULPD  Y9, Y11, Y11            \
	VADDPD  tq1<>(SB), Y11, Y11     \
	VMULPD  Y9, Y11, Y11            \
	VADDPD  tq2<>(SB), Y11, Y11     \
	VMULPD  Y9, Y0, Y12             \
	VMULPD  Y10, Y12, Y12           \
	\ // |x| ≥ 0.625: num = 2, den = s + 1. One division serves both.
	VCMPPD    $13, tanhmid<>(SB), Y8, Y13 \ // GE_OS
	VADDPD    one<>(SB), Y1, Y1     \
	VMOVUPD   two<>(SB), Y14        \
	VBLENDVPD Y13, Y14, Y12, Y12    \
	VBLENDVPD Y13, Y1, Y11, Y11     \
	VDIVPD    Y11, Y12, Y12         \ // q = num / den
	VADDPD  Y12, Y0, Y10            \ // small: x + q
	VXORPD  Y15, Y15, Y15           \
	VCMPPD  $0, Y15, Y0, Y15        \ // EQ_OQ: x == 0 returns x
	VBLENDVPD Y15, Y0, Y10, Y10     \
	VANDPD  signbit<>(SB), Y0, Y9   \ // sign of x
	VMOVUPD one<>(SB), Y14          \
	VSUBPD  Y12, Y14, Y11           \ // mid: ±(1 − 2/(s+1))
	VXORPD  Y9, Y11, Y11            \
	VBLENDVPD Y13, Y11, Y10, Y10    \
	VORPD   Y9, Y14, Y11            \ // big: ±1
	VCMPPD  $14, tanhbig<>(SB), Y8, Y13 \ // GT_OS
	VBLENDVPD Y13, Y11, Y10, Y10

// func tanhLanes(dst, src []float64)
TEXT ·tanhLanes(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	XORQ CX, CX

tanh_loop:
	CMPQ CX, DX
	JGE  tanh_done
	VMOVUPD (SI)(CX*8), Y0
	tanhcore
	VMOVUPD Y10, (DI)(CX*8)
	ADDQ    $4, CX
	JMP     tanh_loop

tanh_done:
	VZEROUPPER
	RET

// func geluLanes(y, gp, x []float32)
//
// Per four floats: widen f = x, u = √(2/π)·(f + 0.044715·f·f·f), t =
// tanh(u), then y = 0.5·f·(1 + t) and g′ = 0.5·(1 + t) + 0.5·f·(1 −
// t·t)·du with du = √(2/π)·(1 + 0.134145·f·f), each narrowed once. The
// ops and their order are gelu4's; only expcore fuses.
TEXT ·geluLanes(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), DX
	MOVQ gp_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	XORQ CX, CX

gelu_loop:
	CMPQ CX, DX
	JGE  gelu_done
	VCVTPS2PD (SI)(CX*4), Y5        // f
	VMULPD    gc1<>(SB), Y5, Y0     // 0.044715·f·f·f
	VMULPD    Y5, Y0, Y0
	VMULPD    Y5, Y0, Y0
	VADDPD    Y0, Y5, Y0            // f + …
	VMULPD    s2pi<>(SB), Y0, Y0    // u
	tanhcore                        // Y10 = t

	VMULPD    half<>(SB), Y5, Y6    // 0.5·f
	VADDPD    one<>(SB), Y10, Y7    // 1 + t
	VMULPD    Y7, Y6, Y1            // y = 0.5·f·(1 + t)
	VCVTPD2PSY Y1, X1
	VMOVUPS   X1, (DI)(CX*4)

	VMULPD    gc3<>(SB), Y5, Y1     // du = √(2/π)·(1 + 0.134145·f·f)
	VMULPD    Y5, Y1, Y1
	VADDPD    one<>(SB), Y1, Y1
	VMULPD    s2pi<>(SB), Y1, Y1
	VMULPD    Y10, Y10, Y2          // 0.5·f·(1 − t·t)·du
	VMOVUPD   one<>(SB), Y3
	VSUBPD    Y2, Y3, Y3
	VMULPD    Y3, Y6, Y3
	VMULPD    Y1, Y3, Y3
	VMULPD    half<>(SB), Y7, Y7    // 0.5·(1 + t) + …
	VADDPD    Y3, Y7, Y7
	VCVTPD2PSY Y7, X7
	VMOVUPS   X7, (R8)(CX*4)
	ADDQ      $4, CX
	JMP       gelu_loop

gelu_done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
