// The 8×8 register transpose and the two things built on it: the full
// blocks of transposeInto (transpose8, transpose16), and LayerNorm's row
// folds, which run one lane per row so that each row's float64 sum keeps
// the row loop's order (ascending j, from 0). A fold takes eight rows n
// floats apart, transposes each 8×8 block, and adds its eight columns
// into two YMM accumulators of four float64 lanes per sum (rows 0–3 and
// 4–7) in ascending j. The elementwise passes (normalize, the γ/β
// gradients, the input gradient) run lanes over j, eight rows a call: γ/β
// take each column block's rows in row order. Every op is the one the row
// loops of kernels.go perform, unfused, with the operand they put first
// (add32, mul32, add64, mul64) as the first source, so a NaN that meets a
// NaN keeps the same payload; TestLayerNormTiersMatchScalar holds each
// tier to them.

#include "textflag.h"

// transpose8x8 loads the 8×8 block whose row 0 starts at p and row 3 at q,
// rows R8 bytes apart (R11 = 3·R8), and leaves its column k (rows 0–7) in
// Yk: unpack row pairs, shuffle 64-bit pairs, swap 128-bit halves. It
// needs AVX only, uses Y0–Y9, and leaves Y10–Y15 alone.
#define transpose8x8(p, q) \
	VMOVUPS    (p), Y1                \ // r0
	VUNPCKLPS  (p)(R8*1), Y1, Y3      \ // t0 = r0 r1 interleaved, low pairs
	VUNPCKHPS  (p)(R8*1), Y1, Y5      \ // t1: high pairs
	VMOVUPS    (p)(R8*2), Y1          \ // r2
	VUNPCKLPS  (q), Y1, Y8            \ // t2 = r2 r3
	VUNPCKHPS  (q), Y1, Y6            \ // t3
	VMOVUPS    (p)(R8*4), Y1          \ // r4
	VUNPCKLPS  (q)(R8*2), Y1, Y7      \ // t4 = r4 r5
	VUNPCKHPS  (q)(R8*2), Y1, Y0      \ // t5
	VMOVUPS    (q)(R11*1), Y1         \ // r6
	VUNPCKLPS  (q)(R8*4), Y1, Y9      \ // t6 = r6 r7
	VUNPCKHPS  (q)(R8*4), Y1, Y4      \ // t7
	VSHUFPS    $0x44, Y8, Y3, Y1      \ // s0 = rows 0–3 of columns 0 | 4
	VSHUFPS    $0xee, Y8, Y3, Y2      \ // s1: columns 1 | 5
	VSHUFPS    $0x44, Y6, Y5, Y3      \ // s2: columns 2 | 6
	VSHUFPS    $0xee, Y6, Y5, Y8      \ // s3: columns 3 | 7
	VSHUFPS    $0x44, Y9, Y7, Y5      \ // s4 = rows 4–7 of columns 0 | 4
	VSHUFPS    $0xee, Y9, Y7, Y6      \ // s5
	VSHUFPS    $0x44, Y4, Y0, Y7      \ // s6
	VSHUFPS    $0xee, Y4, Y0, Y9      \ // s7
	VPERM2F128 $0x20, Y5, Y1, Y0      \ // column 0 = low(s0) low(s4)
	VPERM2F128 $0x31, Y5, Y1, Y4      \ // column 4 = high(s0) high(s4)
	VPERM2F128 $0x20, Y6, Y2, Y1      \
	VPERM2F128 $0x31, Y6, Y2, Y5      \
	VPERM2F128 $0x20, Y7, Y3, Y2      \
	VPERM2F128 $0x31, Y7, Y3, Y6      \
	VPERM2F128 $0x20, Y9, Y8, Y3      \
	VPERM2F128 $0x31, Y9, Y8, Y7

// rows8 takes R8 = n, the float stride of eight rows whose row 0 is at p,
// to R8 = 4n and R11 = 12n, and points q at row 3, for transpose8x8.
#define rows8(p, q) \
	SHLQ $2, R8            \
	LEAQ (R8)(R8*2), R11   \
	LEAQ (p)(R11*1), q

// func transpose8(dst, src []float32, cols8, lds, ldd int)
TEXT ·transpose8(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ cols8+48(FP), CX
	MOVQ lds+56(FP), R8
	rows8(SI, R10)
	MOVQ ldd+64(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R12
	LEAQ (DI)(R12*1), R13 // destination row 3

tr_loop:
	SUBQ    $8, CX
	JLT     tr_done
	transpose8x8(SI, R10)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R9*1)
	VMOVUPS Y2, (DI)(R9*2)
	VMOVUPS Y3, (R13)
	VMOVUPS Y4, (DI)(R9*4)
	VMOVUPS Y5, (R13)(R9*2)
	VMOVUPS Y6, (R13)(R12*1)
	VMOVUPS Y7, (R13)(R9*4)
	ADDQ    $32, SI
	ADDQ    $32, R10
	LEAQ    (DI)(R9*8), DI
	LEAQ    (R13)(R9*8), R13
	JMP     tr_loop

tr_done:
	VZEROUPPER
	RET

// func transpose16(dst, src []float32, cols8, lds, ldd int)
//
// transpose8 on sixteen source rows: each column block's two 8×8 halves
// go out together, so every destination row takes 64 contiguous bytes at
// once, a whole cache line where ldd keeps rows aligned.
TEXT ·transpose16(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ cols8+48(FP), CX
	MOVQ lds+56(FP), R8
	rows8(SI, R10)
	LEAQ (SI)(R8*8), AX  // source row 8
	LEAQ (R10)(R8*8), BX // source row 11
	MOVQ ldd+64(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R12
	LEAQ (DI)(R12*1), R13

tr16_loop:
	SUBQ    $8, CX
	JLT     tr16_done
	transpose8x8(SI, R10)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R9*1)
	VMOVUPS Y2, (DI)(R9*2)
	VMOVUPS Y3, (R13)
	VMOVUPS Y4, (DI)(R9*4)
	VMOVUPS Y5, (R13)(R9*2)
	VMOVUPS Y6, (R13)(R12*1)
	VMOVUPS Y7, (R13)(R9*4)
	transpose8x8(AX, BX)
	VMOVUPS Y0, 32(DI)
	VMOVUPS Y1, 32(DI)(R9*1)
	VMOVUPS Y2, 32(DI)(R9*2)
	VMOVUPS Y3, 32(R13)
	VMOVUPS Y4, 32(DI)(R9*4)
	VMOVUPS Y5, 32(R13)(R9*2)
	VMOVUPS Y6, 32(R13)(R12*1)
	VMOVUPS Y7, 32(R13)(R9*4)
	ADDQ    $32, SI
	ADDQ    $32, R10
	ADDQ    $32, AX
	ADDQ    $32, BX
	LEAQ    (DI)(R9*8), DI
	LEAQ    (R13)(R9*8), R13
	JMP     tr16_loop

tr16_done:
	VZEROUPPER
	RET

// sumcol adds column Yk, widened, into the row sums Y12 (rows 0–3) and
// Y13 (rows 4–7): sum + float64(x).
#define sumcol(k, xk) \
	VCVTPS2PD    xk, Y10          \
	VADDPD       Y10, Y12, Y12    \
	VEXTRACTF128 $1, k, X11       \
	VCVTPS2PD    X11, Y11         \
	VADDPD       Y11, Y13, Y13

// func lnSum(s *[8]float64, x []float32, n, n8 int)
TEXT ·lnSum(SB), NOSPLIT, $0-48
	MOVQ   s+0(FP), DI
	MOVQ   x_base+8(FP), SI
	MOVQ   n8+40(FP), CX
	MOVQ   n+32(FP), R8
	rows8(SI, R10)
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13

sum_loop:
	SUBQ $8, CX
	JLT  sum_done
	transpose8x8(SI, R10)
	sumcol(Y0, X0)
	sumcol(Y1, X1)
	sumcol(Y2, X2)
	sumcol(Y3, X3)
	sumcol(Y4, X4)
	sumcol(Y5, X5)
	sumcol(Y6, X6)
	sumcol(Y7, X7)
	ADDQ $32, SI
	ADDQ $32, R10
	JMP  sum_loop

sum_done:
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// varcol adds column Yk's squared deviations from the means Y14/Y15 into
// Y12/Y13: d = float64(x) − mean, sum + d·d.
#define varcol(k, xk) \
	VCVTPS2PD    xk, Y10          \
	VSUBPD       Y14, Y10, Y10    \
	VMULPD       Y10, Y10, Y10    \
	VADDPD       Y10, Y12, Y12    \
	VEXTRACTF128 $1, k, X11       \
	VCVTPS2PD    X11, Y11         \
	VSUBPD       Y15, Y11, Y11    \
	VMULPD       Y11, Y11, Y11    \
	VADDPD       Y11, Y13, Y13

// func lnVar(s, mean *[8]float64, x []float32, n, n8 int)
TEXT ·lnVar(SB), NOSPLIT, $0-56
	MOVQ    s+0(FP), DI
	MOVQ    mean+8(FP), AX
	MOVQ    x_base+16(FP), SI
	MOVQ    n8+48(FP), CX
	MOVQ    n+40(FP), R8
	rows8(SI, R10)
	VMOVUPD (AX), Y14
	VMOVUPD 32(AX), Y15
	VXORPD  Y12, Y12, Y12
	VXORPD  Y13, Y13, Y13

var_loop:
	SUBQ $8, CX
	JLT  var_done
	transpose8x8(SI, R10)
	varcol(Y0, X0)
	varcol(Y1, X1)
	varcol(Y2, X2)
	varcol(Y3, X3)
	varcol(Y4, X4)
	varcol(Y5, X5)
	varcol(Y6, X6)
	varcol(Y7, X7)
	ADDQ $32, SI
	ADDQ $32, R10
	JMP  var_loop

var_done:
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// dotcol folds column j of the block (dy's at off(SP), xh's in Yk) into
// the sums: dxh = γ[j]·float64(dy), s + dxh into Y12/Y13 and
// t + float64(xh)·dxh into Y14/Y15, with γ[j] at g(BX).
#define dotcol(g, off, k, xk) \
	VBROADCASTSS g(BX), X10           \
	VCVTPS2PD    X10, Y10             \ // γ[j] on four lanes
	VCVTPS2PD    off(SP), Y11         \
	VMULPD       Y11, Y10, Y11        \ // dxh, rows 0–3
	VADDPD       Y11, Y12, Y12        \
	VCVTPS2PD    xk, Y8               \
	VMULPD       Y11, Y8, Y8          \
	VADDPD       Y8, Y14, Y14         \
	VCVTPS2PD    off+16(SP), Y11      \
	VMULPD       Y11, Y10, Y11        \ // dxh, rows 4–7
	VADDPD       Y11, Y13, Y13        \
	VEXTRACTF128 $1, k, X8            \
	VCVTPS2PD    X8, Y8               \
	VMULPD       Y11, Y8, Y8          \
	VADDPD       Y8, Y15, Y15

// func lnDot(s, t *[8]float64, dy, xh, gamma []float32, n, n8 int)
//
// dy's transposed block waits on the stack while xh's is in Y0–Y7.
TEXT ·lnDot(SB), NOSPLIT, $256-104
	MOVQ   dy_base+16(FP), SI
	MOVQ   xh_base+40(FP), DI
	MOVQ   gamma_base+64(FP), BX
	MOVQ   n8+96(FP), CX
	MOVQ   n+88(FP), R8
	rows8(SI, R10)
	LEAQ   (DI)(R11*1), R12 // xh row 3
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15

dot_loop:
	SUBQ $8, CX
	JLT  dot_done
	transpose8x8(SI, R10)
	VMOVUPS Y0, 0(SP)
	VMOVUPS Y1, 32(SP)
	VMOVUPS Y2, 64(SP)
	VMOVUPS Y3, 96(SP)
	VMOVUPS Y4, 128(SP)
	VMOVUPS Y5, 160(SP)
	VMOVUPS Y6, 192(SP)
	VMOVUPS Y7, 224(SP)
	transpose8x8(DI, R12)
	dotcol(0, 0, Y0, X0)
	dotcol(4, 32, Y1, X1)
	dotcol(8, 64, Y2, X2)
	dotcol(12, 96, Y3, X3)
	dotcol(16, 128, Y4, X4)
	dotcol(20, 160, Y5, X5)
	dotcol(24, 192, Y6, X6)
	dotcol(28, 224, Y7, X7)
	ADDQ $32, SI
	ADDQ $32, R10
	ADDQ $32, DI
	ADDQ $32, R12
	ADDQ $32, BX
	JMP  dot_loop

dot_done:
	MOVQ    s+0(FP), AX
	MOVQ    t+8(FP), DX
	VMOVUPD Y12, (AX)
	VMOVUPD Y13, 32(AX)
	VMOVUPD Y14, (DX)
	VMOVUPD Y15, 32(DX)
	VZEROUPPER
	RET

// func lnAffine(y, xh, x, gamma, beta []float32, mean, is *[8]float32, n, n8 int)
//
// Row by row, with that row's mean and is: h = (x − mean)·is, y = h·γ + β,
// eight floats a step.
TEXT ·lnAffine(SB), NOSPLIT, $0-152
	MOVQ y_base+0(FP), BX
	MOVQ xh_base+24(FP), DI
	MOVQ x_base+48(FP), SI
	MOVQ gamma_base+72(FP), R9
	MOVQ beta_base+96(FP), R10
	MOVQ mean+120(FP), R12
	MOVQ is+128(FP), R13
	MOVQ n+136(FP), R8
	MOVQ n8+144(FP), CX
	SHLQ $2, R8
	XORQ R11, R11 // row

aff_row:
	VBROADCASTSS (R12)(R11*4), Y14
	VBROADCASTSS (R13)(R11*4), Y15
	XORQ         AX, AX

aff_loop:
	CMPQ    AX, CX
	JGE     aff_next
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS  Y14, Y0, Y0
	VMULPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	VMULPS  (R9)(AX*4), Y0, Y0
	VADDPS  (R10)(AX*4), Y0, Y0
	VMOVUPS Y0, (BX)(AX*4)
	ADDQ    $8, AX
	JMP     aff_loop

aff_next:
	ADDQ R8, SI
	ADDQ R8, DI
	ADDQ R8, BX
	INCQ R11
	CMPQ R11, $8
	JLT  aff_row
	VZEROUPPER
	RET

// pgrow folds one row's dy (at d) and xh (at h) into dγ (Y0) and dβ (Y1):
// dγ = xh·dy + dγ, dβ = dβ + dy.
#define pgrow(d, h) \
	VMOVUPS h, Y3       \
	VMULPS  d, Y3, Y3   \
	VADDPS  Y0, Y3, Y0  \
	VADDPS  d, Y1, Y1

// func lnParamGrad(dGamma, dBeta, dy, xh []float32, n int)
//
// Eight rows n floats apart, in row order, eight columns a step.
TEXT ·lnParamGrad(SB), NOSPLIT, $0-104
	MOVQ dGamma_base+0(FP), BX
	MOVQ dGamma_len+8(FP), CX
	MOVQ dBeta_base+24(FP), DX
	MOVQ dy_base+48(FP), SI
	MOVQ xh_base+72(FP), DI
	MOVQ n+96(FP), R8
	rows8(SI, R10)
	LEAQ (DI)(R11*1), R12

pg_loop:
	SUBQ    $8, CX
	JLT     pg_done
	VMOVUPS (BX), Y0
	VMOVUPS (DX), Y1
	pgrow((SI), (DI))
	pgrow((SI)(R8*1), (DI)(R8*1))
	pgrow((SI)(R8*2), (DI)(R8*2))
	pgrow((R10), (R12))
	pgrow((SI)(R8*4), (DI)(R8*4))
	pgrow((R10)(R8*2), (R12)(R8*2))
	pgrow((R10)(R11*1), (R12)(R11*1))
	pgrow((R10)(R8*4), (R12)(R8*4))
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, (DX)
	ADDQ    $32, BX
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, R10
	ADDQ    $32, DI
	ADDQ    $32, R12
	JMP     pg_loop

pg_done:
	VZEROUPPER
	RET

// func lnInputGrad(dx, dy, xh, gamma []float32, is, mdx, mdxx *[8]float64, n, n8 int)
//
// Row by row, with that row's is, mdx and mdxx: dx = float32(((γ·dy − mdx)
// − xh·mdxx)·is) + dx, four floats a step.
TEXT ·lnInputGrad(SB), NOSPLIT, $0-136
	MOVQ dx_base+0(FP), DI
	MOVQ dy_base+24(FP), SI
	MOVQ xh_base+48(FP), BX
	MOVQ gamma_base+72(FP), R9
	MOVQ is+96(FP), R10
	MOVQ mdx+104(FP), R12
	MOVQ mdxx+112(FP), R13
	MOVQ n+120(FP), R8
	MOVQ n8+128(FP), CX
	SHLQ $2, R8
	XORQ R11, R11 // row

ig_row:
	VBROADCASTSD (R10)(R11*8), Y13
	VBROADCASTSD (R12)(R11*8), Y14
	VBROADCASTSD (R13)(R11*8), Y15
	XORQ         AX, AX

ig_loop:
	CMPQ       AX, CX
	JGE        ig_next
	VCVTPS2PD  (R9)(AX*4), Y0
	VCVTPS2PD  (SI)(AX*4), Y1
	VMULPD     Y1, Y0, Y0 // dxh = γ·dy
	VSUBPD     Y14, Y0, Y0
	VCVTPS2PD  (BX)(AX*4), Y1
	VMULPD     Y15, Y1, Y1
	VSUBPD     Y1, Y0, Y0
	VMULPD     Y13, Y0, Y0
	VCVTPD2PSY Y0, X0
	VADDPS     (DI)(AX*4), X0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        ig_loop

ig_next:
	ADDQ R8, DI
	ADDQ R8, SI
	ADDQ R8, BX
	INCQ R11
	CMPQ R11, $8
	JLT  ig_row
	VZEROUPPER
	RET
