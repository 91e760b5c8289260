// AVX2+FMA Adam update, eight elements per iteration: the fp32 moment
// updates in one YMM, the fp64 tail in two halves of four. Every operation
// but the bias corrections' quotients is the scalar loop's, in its order,
// correctly rounded per lane. The quotients mhat = m/bc1 and vhat = v/bc2
// are RN(x/bc) exactly by Markstein's theorem (QUOT below), so the kernel is
// bitwise adamScalar. (One thing IEEE 754 leaves open: when both operands of
// an add or multiply are NaN, x86 returns the first source's payload, and
// which operand the compiler makes first in a commutative scalar op is its
// choice; the result is a NaN either way.)
//
// The broadcast constants live in the frame: b1 at 0(SP), 1-b1 at 32, b2
// at 64, 1-b2 at 96 (eight fp32 lanes each); 1/bc1 at 128, bc1 at 160,
// 1/bc2 at 192, bc2 at 224, lr at 256, eps at 288 (four fp64 lanes each).
// Y15 stays zero.

#include "textflag.h"

// QUOT sets x = RN(x/bc) for four fp64 lanes, given y = RN(1/bc) at ymem
// and bc at bmem, with q0, r, q1 and mk as scratch. q0 = x·y; one
// correction r = fma(−q0, bc, x), q1 = fma(r, y, q0) leaves q1 within an
// ulp of x/bc, and Markstein's theorem makes a second one exact. Where the
// first remainder is 0 or NaN — x = ±0, ±Inf or NaN, or q0 already exact —
// q0 is the quotient and is kept: the corrections would turn −0 into +0
// and Inf into NaN.
#define QUOT(x, ymem, bmem, q0, r, q1, mk) \
	VMULPD       ymem, x, q0        \
	VMOVAPD      x, r               \
	VFNMADD231PD bmem, q0, r        \
	VMOVAPD      q0, q1             \
	VFMADD231PD  ymem, r, q1        \
	VCMPPD       $0x0c, Y15, r, mk  \ // r ≠ 0 and not NaN
	VMOVAPD      x, r               \
	VFNMADD231PD bmem, q1, r        \
	VFMADD231PD  ymem, r, q1        \
	VBLENDVPD    mk, q1, q0, x

// STEP sets p = float32(lr·mhat / (√vhat + eps)) for four fp64 lanes,
// given mhat in p and vhat in v.
#define STEP(p, v) \
	VMULPD  256(SP), p, p \
	VSQRTPD v, v          \
	VADDPD  288(SP), v, v \
	VDIVPD  v, p, p

// func adamLanes(params, m, v, grads []float32, b1, omb1, b2, omb2 float32, y1, bc1, y2, bc2, lr, eps float64)
TEXT ·adamLanes(SB), NOSPLIT, $320-160
	MOVQ         params_base+0(FP), DI
	MOVQ         params_len+8(FP), CX
	MOVQ         m_base+24(FP), SI
	MOVQ         v_base+48(FP), DX
	MOVQ         grads_base+72(FP), BX
	VBROADCASTSS b1+96(FP), Y0
	VMOVUPS      Y0, 0(SP)
	VBROADCASTSS omb1+100(FP), Y0
	VMOVUPS      Y0, 32(SP)
	VBROADCASTSS b2+104(FP), Y0
	VMOVUPS      Y0, 64(SP)
	VBROADCASTSS omb2+108(FP), Y0
	VMOVUPS      Y0, 96(SP)
	VBROADCASTSD y1+112(FP), Y0
	VMOVUPD      Y0, 128(SP)
	VBROADCASTSD bc1+120(FP), Y0
	VMOVUPD      Y0, 160(SP)
	VBROADCASTSD y2+128(FP), Y0
	VMOVUPD      Y0, 192(SP)
	VBROADCASTSD bc2+136(FP), Y0
	VMOVUPD      Y0, 224(SP)
	VBROADCASTSD lr+144(FP), Y0
	VMOVUPD      Y0, 256(SP)
	VBROADCASTSD eps+152(FP), Y0
	VMOVUPD      Y0, 288(SP)
	VXORPD       Y15, Y15, Y15
	XORQ         AX, AX

loop:
	CMPQ    AX, CX
	JGE     done
	VMOVUPS (BX)(AX*4), Y0 // g
	// m = b1*m + (1-b1)*g
	VMULPS  32(SP), Y0, Y1
	VMOVUPS (SI)(AX*4), Y2
	VMULPS  0(SP), Y2, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (SI)(AX*4)
	// v = b2*v + ((1-b2)*g)*g
	VMOVUPS (DX)(AX*4), Y3
	VMULPS  64(SP), Y3, Y3
	VMULPS  96(SP), Y0, Y4
	VMULPS  Y4, Y0, Y0
	VADDPS  Y3, Y0, Y0
	VMOVUPS Y0, (DX)(AX*4)
	// Widen to fp64: Y2/Y4 = m/v of lanes 0-3, Y3/Y5 of lanes 4-7.
	VCVTPS2PD    X1, Y2
	VEXTRACTF128 $1, Y1, X3
	VCVTPS2PD    X3, Y3
	VCVTPS2PD    X0, Y4
	VEXTRACTF128 $1, Y0, X5
	VCVTPS2PD    X5, Y5
	// mhat = m/bc1, vhat = v/bc2
	QUOT(Y2, 128(SP), 160(SP), Y6, Y7, Y8, Y9)
	QUOT(Y3, 128(SP), 160(SP), Y10, Y11, Y12, Y13)
	QUOT(Y4, 192(SP), 224(SP), Y6, Y7, Y8, Y9)
	QUOT(Y5, 192(SP), 224(SP), Y10, Y11, Y12, Y13)
	// (lr*mhat) / (sqrt(vhat)+eps), rounded once to fp32
	STEP(Y2, Y4)
	STEP(Y3, Y5)
	VCVTPD2PSY  Y2, X2
	VCVTPD2PSY  Y3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVUPS     (DI)(AX*4), Y6
	VSUBPS      Y2, Y6, Y6
	VMOVUPS     Y6, (DI)(AX*4)
	ADDQ        $8, AX
	JMP         loop

done:
	VZEROUPPER
	RET

// func adamQuot(x []float64, y, bc float64)
// x[i] = RN(x[i]/bc) through QUOT, four lanes at a time; len(x) must be a
// multiple of 4. It exists for the exactness sweep, which pins QUOT itself.
TEXT ·adamQuot(SB), NOSPLIT, $64-40
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD y+24(FP), Y0
	VMOVUPD      Y0, 0(SP)
	VBROADCASTSD bc+32(FP), Y0
	VMOVUPD      Y0, 32(SP)
	VXORPD       Y15, Y15, Y15
	XORQ         AX, AX

quot_loop:
	CMPQ    AX, CX
	JGE     quot_done
	VMOVUPD (DI)(AX*8), Y2
	QUOT(Y2, 0(SP), 32(SP), Y6, Y7, Y8, Y9)
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     quot_loop

quot_done:
	VZEROUPPER
	RET
