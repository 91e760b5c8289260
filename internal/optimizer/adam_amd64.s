// SSE2 Adam update, four elements per iteration. Lanes are distinct
// elements and every operation is the scalar loop's, in its order, correctly
// rounded per lane, so the kernel is bitwise adamScalar. (One thing IEEE 754
// leaves open: when both operands of an add or multiply are NaN, x86 returns
// the destination's payload, and which operand the compiler makes the
// destination of a commutative scalar op is its choice. The roles below
// follow what go1.24 emits for adamScalar; the result is a NaN either way.)
// SSE2 is part of the amd64 baseline: no CPUID dispatch.

#include "textflag.h"

// func adamQuadsSSE2(params, m, v, grads []float32, b1, omb1, b2, omb2 float32, bc1, bc2, lr, eps float64)
TEXT ·adamQuadsSSE2(SB), NOSPLIT, $0-144
	MOVQ  params_base+0(FP), DI
	MOVQ  params_len+8(FP), CX
	MOVQ  m_base+24(FP), SI
	MOVQ  v_base+48(FP), DX
	MOVQ  grads_base+72(FP), BX
	MOVSS b1+96(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS omb1+100(FP), X9
	SHUFPS $0x00, X9, X9
	MOVSS b2+104(FP), X10
	SHUFPS $0x00, X10, X10
	MOVSS omb2+108(FP), X11
	SHUFPS $0x00, X11, X11
	MOVSD bc1+112(FP), X12
	SHUFPD $0x00, X12, X12
	MOVSD bc2+120(FP), X13
	SHUFPD $0x00, X13, X13
	MOVSD lr+128(FP), X14
	SHUFPD $0x00, X14, X14
	MOVSD eps+136(FP), X7
	SHUFPD $0x00, X7, X7
	XORQ  AX, AX
adam_loop4:
	CMPQ  AX, CX
	JGE   adam_done
	MOVUPS (BX)(AX*4), X0  // g
	// m = b1*m + (1-b1)*g
	MOVAPS X9, X1
	MULPS  X0, X1
	MOVUPS (SI)(AX*4), X2
	MULPS  X8, X2
	ADDPS  X2, X1
	MOVUPS X1, (SI)(AX*4)
	// v = b2*v + ((1-b2)*g)*g
	MOVUPS (DX)(AX*4), X3
	MULPS  X10, X3
	MOVAPS X11, X4
	MULPS  X0, X4
	MULPS  X4, X0
	ADDPS  X3, X0
	MOVUPS X0, (DX)(AX*4)
	// Widen to fp64: X2/X3 = m/v of lanes 0-1, X4/X5 of lanes 2-3.
	CVTPS2PD X1, X2
	CVTPS2PD X0, X3
	MOVHLPS X1, X4
	CVTPS2PD X4, X4
	MOVHLPS X0, X5
	CVTPS2PD X5, X5
	// mhat = m/bc1, vhat = v/bc2
	DIVPD X12, X2
	DIVPD X12, X4
	DIVPD X13, X3
	DIVPD X13, X5
	// (lr*mhat) / (sqrt(vhat)+eps)
	MULPD X14, X2
	MULPD X14, X4
	SQRTPD X3, X3
	SQRTPD X5, X5
	ADDPD X7, X3
	ADDPD X7, X5
	DIVPD X3, X2
	DIVPD X5, X4
	// Round once to fp32 and subtract from the parameters.
	CVTPD2PS X2, X2
	CVTPD2PS X4, X4
	MOVLHPS X4, X2
	MOVUPS (DI)(AX*4), X6
	SUBPS X2, X6
	MOVUPS X6, (DI)(AX*4)
	ADDQ  $4, AX
	JMP   adam_loop4
adam_done:
	RET
