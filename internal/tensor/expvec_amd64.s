// exp, tanh and GELU in two tiers, four lanes in YMM registers (AVX2+FMA)
// and eight in ZMM registers (AVX-512F), bitwise equal to math.Exp,
// math.Tanh and the scalar GELU loop on every lane they finish, and so to
// each other.
//
// Go's math.Exp on amd64 (src/math/exp_amd64.s) is a scalar port of
// Shibata's SIMD exp ("Efficient evaluation methods of elementary functions
// suitable for SIMD computation", ISC'10). On a CPU with AVX and FMA it
// takes its `avxfma` branch; expcore below is that branch run four lanes
// wide, instruction for instruction: the same constants, k = x·log2(e)
// rounded to nearest even, two fused reduction steps, ×1/16, the seven-FMA
// Taylor chain, four x·(x+2) squarings (the last fused with the +1) and
// 2^k built by integer add and shift. expcoreZ is the same sequence eight
// lanes wide. Only lanes on archExp's normal path (−1022 ≤ k ≤ 1023) are
// computed here; k < −1075 (−Inf included) is archExp's underflow and gives
// +0, and everything else (NaN, x > 709.78 with +Inf, the denormal results)
// is reported back for scalar math.Exp. expLanes and expLanesZ are
// softmax's whole exp pass: each step subtracts the row maximum in float32,
// widens, runs expcore, and writes both the float64 result and its float32
// narrowing, so the row goes to exp with no staging.
//
// tanhcore evaluates all three of math.tanh's branches on every lane and
// blends them per lane, each branch in Go's evaluation order (amd64 Go
// never fuses a multiply and an add). Its exp argument 2|x| lies in
// [1.25, 88.03] on the lanes that use it, always archExp's normal path.
// tanhcoreZ is it eight lanes wide, with opmask blends. tanhLanes and
// tanhLanesZ run a tier's tanh over a float64 array; geluLanes and
// geluLanesZ run it between widening float32 inputs to the GELU argument
// and narrowing y and g′, so the whole GELU forward is one pass with no
// staging.
//
// Each ZMM kernel runs eight-lane steps and finishes a len mod 8
// remainder of four with its YMM sibling's step. Every lane op is exact
// IEEE arithmetic in the scalar code's order; the dispatch in
// expvec_amd64.go runs this only where math.Exp itself takes its FMA
// branch.

#include "textflag.h"

// bcast lays down one float64 (or int64) four times: a 256-bit memory
// operand with the value in every lane, whose first element the ZMM code
// broadcasts (.BCST).
#define bcast(name, v) \
	DATA name<>+0(SB)/8, v   \
	DATA name<>+8(SB)/8, v   \
	DATA name<>+16(SB)/8, v  \
	DATA name<>+24(SB)/8, v  \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// bcast4 lays down one int32 four times: a 128-bit memory operand, whose
// first element the ZMM compares broadcast.
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

// expcoreZ is expcore on the eight lanes of Z1, each constant broadcast
// from its first element. It leaves k (int32) in Y3, the upper half of Z3
// zero, and uses Z2 and Z4 as scratch.
#define expcoreZ \
	VMULPD.BCST       log2e<>(SB), Z1, Z2     \
	VCVTPD2DQ         Z2, Y3                  \ // k = round-to-even(x·log2e)
	VCVTDQ2PD         Y3, Z2                  \
	VFNMADD231PD.BCST ln2u<>(SB), Z2, Z1      \ // x −= k·ln2u, fused
	VFNMADD231PD.BCST ln2l<>(SB), Z2, Z1      \ // x −= k·ln2l, fused
	VMULPD.BCST       sixteenth<>(SB), Z1, Z1 \
	VBROADCASTSD      c8<>(SB), Z4            \ // Taylor series, Horner, fused
	VFMADD213PD.BCST  c7<>(SB), Z1, Z4        \
	VFMADD213PD.BCST  c6<>(SB), Z1, Z4        \
	VFMADD213PD.BCST  c5<>(SB), Z1, Z4        \
	VFMADD213PD.BCST  c4<>(SB), Z1, Z4        \
	VFMADD213PD.BCST  c3<>(SB), Z1, Z4        \
	VFMADD213PD.BCST  half<>(SB), Z1, Z4      \
	VFMADD213PD.BCST  one<>(SB), Z1, Z4       \
	VMULPD            Z4, Z1, Z1              \
	VADDPD.BCST       two<>(SB), Z1, Z4       \ // four times x = x·(x+2)
	VMULPD            Z4, Z1, Z1              \
	VADDPD.BCST       two<>(SB), Z1, Z4       \
	VMULPD            Z4, Z1, Z1              \
	VADDPD.BCST       two<>(SB), Z1, Z4       \
	VMULPD            Z4, Z1, Z1              \
	VADDPD.BCST       two<>(SB), Z1, Z4       \
	VFMADD213PD.BCST  one<>(SB), Z4, Z1       \ // the last one fused with +1
	VPMOVSXDQ         Y3, Z2                  \ // ·2^k: (k+1023) << 52
	VPADDQ.BCST       bias<>(SB), Z2, Z2      \
	VPSLLQ            $52, Z2, Z2             \
	VMULPD            Z2, Z1, Z1

// expstep4 is one four-lane step of the softmax exp pass at lane CX, with
// max broadcast in X8: d = float64(row − max) (the subtraction in float32),
// e = exp(d) where expcore finishes the lane and d where it hands it back,
// out = float32(e), and the handed-back lanes' bits ORed into R8. It clobbers
// Y0–Y7 and AX.
#define expstep4 \
	VMOVUPS    (SI)(CX*4), X0           \
	VSUBPS     X8, X0, X0               \
	VCVTPS2PD  X0, Y0                   \ // d
	VMOVAPD    Y0, Y1                   \
	expcore                             \
	\ // normal = −1023 < k < 1024; ok = normal or k < −1075, and d ≤
	\ // 709.78 (false for NaN, true for −Inf).
	VPCMPGTD   kmin<>(SB), X3, X5       \
	VMOVDQU    kmax<>(SB), X6           \
	VPCMPGTD   X3, X6, X6               \
	VPAND      X6, X5, X5               \
	VMOVDQU    kzero<>(SB), X6          \
	VPCMPGTD   X3, X6, X6               \
	VPOR       X5, X6, X6               \
	VPMOVSXDQ  X5, Y5                   \
	VPMOVSXDQ  X6, Y6                   \
	VCMPPD     $2, overflow<>(SB), Y0, Y7 \ // LE_OS
	VANDPD     Y7, Y6, Y6               \
	VANDPD     Y5, Y1, Y1               \ // +0 on every lane but normal ones
	VBLENDVPD  Y6, Y1, Y0, Y1           \ // d on the lanes handed back
	VMOVUPD    Y1, (DI)(CX*8)           \
	VCVTPD2PSY Y1, X1                   \
	VMOVUPS    X1, (R9)(CX*4)           \
	VMOVMSKPD  Y6, AX                   \
	XORQ       $15, AX                  \
	SHLQ       CX, AX                   \
	ORQ        AX, R8

// expstep8 is expstep4 on eight lanes in ZMM registers (max broadcast in
// Y8), the masks in K1 (normal) and K2 (handed back). The int32 compares
// run on all sixteen dword lanes of Z3, whose upper eight are zero; only
// the low eight mask bits are used. It clobbers Z0–Z4, K1, K2 and AX.
#define expstep8 \
	VMOVUPS       (SI)(CX*4), Y0                \
	VSUBPS        Y8, Y0, Y0                    \
	VCVTPS2PD     Y0, Z0                        \ // d
	VMOVAPD       Z0, Z1                        \
	expcoreZ                                    \
	VPCMPGTD.BCST kmin<>(SB), Z3, K1            \ // normal: k > −1023
	VPCMPD.BCST   $1, kmax<>(SB), Z3, K1, K1    \ // and k < 1024
	VPCMPD.BCST   $1, kzero<>(SB), Z3, K2       \ // k < −1075
	KORW          K1, K2, K2                    \
	VCMPPD.BCST   $2, overflow<>(SB), Z0, K2, K2 \ // ok: and d ≤ 709.78
	VMOVAPD.Z     Z1, K1, Z1                    \ // +0 on every lane but normal ones
	KNOTW         K2, K2                        \
	VMOVAPD       Z0, K2, Z1                    \ // d on the lanes handed back
	VMOVUPD       Z1, (DI)(CX*8)                \
	VCVTPD2PS     Z1, Y1                        \
	VMOVUPS       Y1, (R9)(CX*4)                \
	KMOVW         K2, AX                        \
	ANDQ          $0xff, AX                     \
	SHLQ          CX, AX                        \
	ORQ           AX, R8

// func expLanes(e []float64, out, row []float32, max float32) uint64
TEXT ·expLanes(SB), NOSPLIT, $0-88
	MOVQ         e_base+0(FP), DI
	MOVQ         e_len+8(FP), DX
	MOVQ         out_base+24(FP), R9
	MOVQ         row_base+48(FP), SI
	VBROADCASTSS max+72(FP), Y8
	XORQ         CX, CX // lane index, and its bit in the result
	XORQ         R8, R8 // lanes left for scalar math.Exp

exp_loop:
	CMPQ CX, DX
	JGE  exp_done
	expstep4
	ADDQ $4, CX
	JMP  exp_loop

exp_done:
	VZEROUPPER
	MOVQ R8, ret+80(FP)
	RET

// func expLanesZ(e []float64, out, row []float32, max float32) uint64
TEXT ·expLanesZ(SB), NOSPLIT, $0-88
	MOVQ         e_base+0(FP), DI
	MOVQ         e_len+8(FP), DX
	MOVQ         out_base+24(FP), R9
	MOVQ         row_base+48(FP), SI
	VBROADCASTSS max+72(FP), Y8
	XORQ         CX, CX
	XORQ         R8, R8
	LEAQ         -8(DX), BX // the last lane an eight-lane step may start at

expz_loop:
	CMPQ CX, BX
	JGT  expz_tail
	expstep8
	ADDQ $8, CX
	JMP  expz_loop

expz_tail:
	CMPQ CX, DX
	JGE  expz_done
	expstep4

expz_done:
	VZEROUPPER
	MOVQ R8, ret+80(FP)
	RET

// func maxLanes(m *[8]float32, row []float32)
//
// Eight lanes seeded with row[0], each keeping v where v > lane (VMAXPS
// with v first: a NaN v or a tie keeps the lane).
TEXT ·maxLanes(SB), NOSPLIT, $0-32
	MOVQ         m+0(FP), DI
	MOVQ         row_base+8(FP), SI
	MOVQ         row_len+16(FP), DX
	VBROADCASTSS (SI), Y0
	XORQ         CX, CX

max_loop:
	CMPQ    CX, DX
	JGE     max_done
	VMOVUPS (SI)(CX*4), Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    $8, CX
	JMP     max_loop

max_done:
	VMOVUPS Y0, (DI)
	VZEROUPPER
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

// tanhcoreZ is tanhcore on the eight lanes of Z0, into Z10, with each
// blend a masked move under K1 (|x| ≥ 0.625), K2 (x == 0) or K3 (|x| >
// 0.5·MAXLOG). The bitwise ops are the AVX-512F integer ones. It clobbers
// Z1–Z4, Z8–Z15 and K1–K3; Z0 and Z5–Z7 survive.
#define tanhcoreZ \
	VPANDQ.BCST  absmask<>(SB), Z0, Z8   \ // z = |x|
	VADDPD       Z8, Z8, Z1              \ // 2·z
	expcoreZ                             \ // Z1 = s = exp(2z)
	VMULPD       Z0, Z0, Z9              \
	VMULPD.BCST  tp0<>(SB), Z9, Z10      \
	VADDPD.BCST  tp1<>(SB), Z10, Z10     \
	VMULPD       Z9, Z10, Z10            \
	VADDPD.BCST  tp2<>(SB), Z10, Z10     \
	VADDPD.BCST  tq0<>(SB), Z9, Z11      \
	VMULPD       Z9, Z11, Z11            \
	VADDPD.BCST  tq1<>(SB), Z11, Z11     \
	VMULPD       Z9, Z11, Z11            \
	VADDPD.BCST  tq2<>(SB), Z11, Z11     \
	VMULPD       Z9, Z0, Z12             \
	VMULPD       Z10, Z12, Z12           \
	VCMPPD.BCST  $13, tanhmid<>(SB), Z8, K1 \ // GE_OS
	VADDPD.BCST  one<>(SB), Z1, Z1       \
	VBROADCASTSD two<>(SB), K1, Z12      \
	VMOVAPD      Z1, K1, Z11             \
	VDIVPD       Z11, Z12, Z12           \ // q = num / den
	VADDPD       Z12, Z0, Z10            \ // small: x + q
	VPXORQ       Z15, Z15, Z15           \
	VCMPPD       $0, Z15, Z0, K2         \ // EQ_OQ: x == 0 returns x
	VMOVAPD      Z0, K2, Z10             \
	VPANDQ.BCST  signbit<>(SB), Z0, Z9   \ // sign of x
	VBROADCASTSD one<>(SB), Z14          \
	VSUBPD       Z12, Z14, Z11           \ // mid: ±(1 − 2/(s+1))
	VPXORQ       Z9, Z11, Z11            \
	VMOVAPD      Z11, K1, Z10            \
	VPORQ        Z9, Z14, Z11            \ // big: ±1
	VCMPPD.BCST  $14, tanhbig<>(SB), Z8, K3 \ // GT_OS
	VMOVAPD      Z11, K3, Z10

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

// func tanhLanesZ(dst, src []float64)
TEXT ·tanhLanesZ(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	XORQ CX, CX
	LEAQ -8(DX), BX // the last lane an eight-lane step may start at

tanhz_loop:
	CMPQ    CX, BX
	JGT     tanhz_tail
	VMOVUPD (SI)(CX*8), Z0
	tanhcoreZ
	VMOVUPD Z10, (DI)(CX*8)
	ADDQ    $8, CX
	JMP     tanhz_loop

tanhz_tail:
	CMPQ    CX, DX
	JGE     tanhz_done
	VMOVUPD (SI)(CX*8), Y0
	tanhcore
	VMOVUPD Y10, (DI)(CX*8)

tanhz_done:
	VZEROUPPER
	RET

// gelustep4 is GELU on the four floats at lane CX of x (SI) into y (DI)
// and g′ (R8): widen f = x, u = √(2/π)·(f + 0.044715·f·f·f), t = tanh(u),
// then y = 0.5·f·(1 + t) and g′ = 0.5·(1 + t) + 0.5·f·(1 − t·t)·du with du
// = √(2/π)·(1 + 0.134145·f·f), each narrowed once. The ops and their order
// are gelu4's; only expcore fuses.
#define gelustep4 \
	VCVTPS2PD  (SI)(CX*4), Y5        \ // f
	VMULPD     gc1<>(SB), Y5, Y0     \ // 0.044715·f·f·f
	VMULPD     Y5, Y0, Y0            \
	VMULPD     Y5, Y0, Y0            \
	VADDPD     Y0, Y5, Y0            \ // f + …
	VMULPD     s2pi<>(SB), Y0, Y0    \ // u
	tanhcore                         \ // Y10 = t
	VMULPD     half<>(SB), Y5, Y6    \ // 0.5·f
	VADDPD     one<>(SB), Y10, Y7    \ // 1 + t
	VMULPD     Y7, Y6, Y1            \ // y = 0.5·f·(1 + t)
	VCVTPD2PSY Y1, X1                \
	VMOVUPS    X1, (DI)(CX*4)        \
	VMULPD     gc3<>(SB), Y5, Y1     \ // du = √(2/π)·(1 + 0.134145·f·f)
	VMULPD     Y5, Y1, Y1            \
	VADDPD     one<>(SB), Y1, Y1     \
	VMULPD     s2pi<>(SB), Y1, Y1    \
	VMULPD     Y10, Y10, Y2          \ // 0.5·f·(1 − t·t)·du
	VMOVUPD    one<>(SB), Y3         \
	VSUBPD     Y2, Y3, Y3            \
	VMULPD     Y3, Y6, Y3            \
	VMULPD     Y1, Y3, Y3            \
	VMULPD     half<>(SB), Y7, Y7    \ // 0.5·(1 + t) + …
	VADDPD     Y3, Y7, Y7            \
	VCVTPD2PSY Y7, X7                \
	VMOVUPS    X7, (R8)(CX*4)

// gelustep8 is gelustep4 on eight floats in ZMM registers.
#define gelustep8 \
	VCVTPS2PD    (SI)(CX*4), Z5      \ // f
	VMULPD.BCST  gc1<>(SB), Z5, Z0   \ // 0.044715·f·f·f
	VMULPD       Z5, Z0, Z0          \
	VMULPD       Z5, Z0, Z0          \
	VADDPD       Z0, Z5, Z0          \ // f + …
	VMULPD.BCST  s2pi<>(SB), Z0, Z0  \ // u
	tanhcoreZ                        \ // Z10 = t
	VMULPD.BCST  half<>(SB), Z5, Z6  \ // 0.5·f
	VADDPD.BCST  one<>(SB), Z10, Z7  \ // 1 + t
	VMULPD       Z7, Z6, Z1          \ // y = 0.5·f·(1 + t)
	VCVTPD2PS    Z1, Y1              \
	VMOVUPS      Y1, (DI)(CX*4)      \
	VMULPD.BCST  gc3<>(SB), Z5, Z1   \ // du = √(2/π)·(1 + 0.134145·f·f)
	VMULPD       Z5, Z1, Z1          \
	VADDPD.BCST  one<>(SB), Z1, Z1   \
	VMULPD.BCST  s2pi<>(SB), Z1, Z1  \
	VMULPD       Z10, Z10, Z2        \ // 0.5·f·(1 − t·t)·du
	VBROADCASTSD one<>(SB), Z3       \
	VSUBPD       Z2, Z3, Z3          \
	VMULPD       Z3, Z6, Z3          \
	VMULPD       Z1, Z3, Z3          \
	VMULPD.BCST  half<>(SB), Z7, Z7  \ // 0.5·(1 + t) + …
	VADDPD       Z3, Z7, Z7          \
	VCVTPD2PS    Z7, Y7              \
	VMOVUPS      Y7, (R8)(CX*4)

// func geluLanes(y, gp, x []float32)
TEXT ·geluLanes(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), DX
	MOVQ gp_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	XORQ CX, CX

gelu_loop:
	CMPQ CX, DX
	JGE  gelu_done
	gelustep4
	ADDQ $4, CX
	JMP  gelu_loop

gelu_done:
	VZEROUPPER
	RET

// func geluLanesZ(y, gp, x []float32)
TEXT ·geluLanesZ(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), DX
	MOVQ gp_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	XORQ CX, CX
	LEAQ -8(DX), BX // the last lane an eight-lane step may start at

geluz_loop:
	CMPQ CX, BX
	JGT  geluz_tail
	gelustep8
	ADDQ $8, CX
	JMP  geluz_loop

geluz_tail:
	CMPQ CX, DX
	JGE  geluz_done
	gelustep4

geluz_done:
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
