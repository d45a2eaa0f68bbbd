// Digit-render kernels (see render.go), eight pixels per AVX-512 step.
// Every lane runs the generic Go code's IEEE-754 operations in its
// order, multiplied then added with separate instructions (no FMA), so
// the results are bit-identical to it. Only AVX-512F instructions are
// used, since that is the one feature the dispatch checks: VPANDQ and
// VPORQ rather than VANDPD and VORPD, and no VCVTQQ2PD. Tails run the
// same step under an opmask; masked loads do not touch memory past the
// slices.

#include "textflag.h"

// BCAST broadcasts the 64-bit constant C into every lane of Z.
#define BCAST(C, Z) \
	MOVQ         $C, AX; \
	VPBROADCASTQ AX, Z

// TAILMASK sets K1 to the lanes of the next step that hold pixels: all
// eight, or the low n-i when fewer are left (n in R12, i in R9). It
// jumps to DONE when none are left. It clobbers AX, CX and R10.
#define TAILMASK(DONE) \
	MOVQ    R12, AX;   \
	SUBQ    R9, AX;    \
	JLE     DONE;      \
	XORQ    R10, R10;  \
	MOVQ    $8, CX;    \
	SUBQ    AX, CX;    \
	CMOVQLT R10, CX;   \
	MOVL    $0xFF, R10; \
	SHRL    CX, R10;   \
	KMOVW   R10, K1

// func pixelNoiseAVX512(px, u, q []float64, flipped []bool, std float64)
//
// The noise is Normal(0, std) from the polar pair: std times
// u·√(−2·ln q / q), added after +0. The logarithm is math.Log's amd64
// kernel (archLog, src/math/log_amd64.s), step for step: frexp by bit
// masks (f1 = the mantissa with the exponent of 0.5, k = the biased
// exponent less 0x3FE, converted through int32), then k -= 1 and
// f1 *= 2 where f1 <= √2/2 (archLog's CMPSD NLT, as 0 or 1 subtracted
// and 1 or 2 multiplied), f = f1 - 1, s = f/(2+f), the two polynomials
// in s⁴ and
//
//	k·Ln2Hi - ((hfsq - (s·(hfsq+R) + k·Ln2Lo)) - f),  hfsq = 0.5·f·f.
//
// archLog's special cases (q zero, negative, infinite or NaN) are not
// ported: the polar loop's q lies in [2⁻¹⁰⁴, 1) (u and v are multiples
// of 2⁻⁵², so a nonzero u² + v² is at least 2⁻¹⁰⁴, and rounding keeps
// it there), a normal number, so none of them can occur. The flip is 1 - v on the
// lanes whose byte is nonzero. The clamp is VMAXPD with 0, then VMINPD
// with 1, each with the pixel as the second source, which that
// instruction returns when the comparison fails: so NaN and −0 pass
// through as they do Go's if chain.
TEXT ·pixelNoiseAVX512(SB), NOSPLIT, $0-104
	MOVQ px_base+0(FP), DI
	MOVQ px_len+8(FP), R12
	MOVQ u_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ flipped_base+72(FP), R8
	XORQ R13, R13           // 1 when std > 0
	MOVSD std+96(FP), X0
	XORPS X1, X1
	UCOMISD X1, X0
	JBE  pn_consts
	MOVQ $1, R13
pn_consts:
	VBROADCASTSD X0, Z14    // std
	BCAST(0x000FFFFFFFFFFFFF, Z31) // mantissa bits
	BCAST(0x3FE0000000000000, Z30) // 0.5
	BCAST(0x7FF, Z29)
	BCAST(0x3FE, Z28)
	BCAST(0x3FE6A09E667F3BCD, Z27) // √2/2
	BCAST(0x3FF0000000000000, Z26) // 1
	BCAST(0x4000000000000000, Z25) // 2
	BCAST(0x3FE5555555555593, Z24) // L1
	BCAST(0x3FD999999997FA04, Z23) // L2
	BCAST(0x3FD2492494229359, Z22) // L3
	BCAST(0x3FCC71C51D8E78AF, Z21) // L4
	BCAST(0x3FC7466496CB03DE, Z20) // L5
	BCAST(0x3FC39A09D078C69F, Z19) // L6
	BCAST(0x3FC2F112DF3E5244, Z18) // L7
	BCAST(0x3FE62E42FEE00000, Z17) // Ln2Hi
	BCAST(0x3DEA39EF35793C76, Z16) // Ln2Lo
	BCAST(0xC000000000000000, Z15) // -2
	VPXORQ Z13, Z13, Z13    // +0
	XORQ R9, R9             // i
pn_loop:
	TAILMASK(pn_done)
	TESTQ R13, R13
	JNZ  pn_noise
	VMOVUPD.Z (DI)(R9*8), K1, Z3
	JMP  pn_flip
pn_noise:
	VMOVUPD.Z (DX)(R9*8), K1, Z0 // q
	// f1, k := frexp(q)
	VPANDQ    Z31, Z0, Z2
	VPORQ     Z30, Z2, Z2   // f1
	VPSRLQ    $52, Z0, Z1
	VPANDQ    Z29, Z1, Z1
	VPSUBQ    Z28, Z1, Z1
	VPMOVQD   Z1, Y1
	VCVTDQ2PD Y1, Z1        // k
	// if f1 <= √2/2 { k -= 1; f1 *= 2 }
	VCMPPD    $2, Z27, Z2, K2
	VMOVAPD.Z Z26, K2, Z3   // 1 or 0
	VSUBPD    Z3, Z1, Z1
	VADDPD    Z26, Z3, Z3   // 2 or 1
	VMULPD    Z3, Z2, Z2
	// f := f1 - 1; s := f / (2 + f)
	VSUBPD    Z26, Z2, Z2   // f
	VADDPD    Z25, Z2, Z4
	VDIVPD    Z4, Z2, Z3    // s
	VMULPD    Z3, Z3, Z4    // s2
	VMULPD    Z4, Z4, Z5    // s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD    Z5, Z18, Z6
	VADDPD    Z20, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VADDPD    Z22, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VADDPD    Z24, Z6, Z6
	VMULPD    Z6, Z4, Z4    // t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD    Z5, Z19, Z6
	VADDPD    Z21, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VADDPD    Z23, Z6, Z6
	VMULPD    Z6, Z5, Z5    // t2
	VADDPD    Z5, Z4, Z4    // R
	VMULPD    Z2, Z30, Z7
	VMULPD    Z2, Z7, Z7    // hfsq
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD    Z7, Z4, Z4
	VMULPD    Z4, Z3, Z3
	VMULPD    Z1, Z16, Z4
	VADDPD    Z4, Z3, Z3
	VSUBPD    Z3, Z7, Z7
	VSUBPD    Z2, Z7, Z7
	VMULPD    Z17, Z1, Z1
	VSUBPD    Z7, Z1, Z1    // ln q
	// v += 0 + std*(u*√(-2*ln q/q))
	VMULPD    Z1, Z15, Z1
	VDIVPD    Z0, Z1, Z1
	VSQRTPD   Z1, Z1
	VMOVUPD.Z (SI)(R9*8), K1, Z2 // u
	VMULPD    Z1, Z2, Z1
	VMULPD    Z1, Z14, Z1
	VADDPD    Z1, Z13, Z1
	VMOVUPD.Z (DI)(R9*8), K1, Z3 // v
	VADDPD    Z1, Z3, Z3
pn_flip:
	VPMOVZXBQ.Z (R8)(R9*1), K1, Z4
	VPTESTMQ  Z4, Z4, K1, K2
	VSUBPD    Z3, Z26, K2, Z3 // flipped: 1 - v
	VMAXPD    Z3, Z13, Z3     // v < 0: 0
	VMINPD    Z3, Z26, Z3     // v > 1: 1
	VMOVUPD   Z3, K1, (DI)(R9*8)
	ADDQ $8, R9
	JMP  pn_loop
pn_done:
	VZEROUPPER
	RET

// lanes<> holds 0, 1, ..., 7.
DATA lanes<>+0(SB)/8, $0.0
DATA lanes<>+8(SB)/8, $1.0
DATA lanes<>+16(SB)/8, $2.0
DATA lanes<>+24(SB)/8, $3.0
DATA lanes<>+32(SB)/8, $4.0
DATA lanes<>+40(SB)/8, $5.0
DATA lanes<>+48(SB)/8, $6.0
DATA lanes<>+56(SB)/8, $7.0
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func strokeRowAVX512(px []float64, s Stroke, x0, step int, cy float64)
//
// One lane per pixel of the row. The columns are kept as doubles,
// float64(x0) + k·float64(step), which is exactly float64(x0+k·step)
// for integers below 2⁵³. (cy-Y1)·DY is the same in every lane, so it
// is computed once. The distance is math.Hypot's amd64 kernel
// (archHypot, src/math/hypot_amd64.s): p and q are the absolute values,
// and the result is max·√(1 + (min/max)²) with max = MAXSD(p, q) and
// min = MINSD(q, p), or 0 when both are 0. Its infinite and NaN cases
// are not ported: the segment and the columns are finite. Every lane is
// computed, also past Stroke.Far, where the coverage is ≤ 0 and nothing
// is stored, as the generic kernel's skip stores nothing.
TEXT ·strokeRowAVX512(SB), NOSPLIT, $0-112
	MOVQ px_base+0(FP), DI
	MOVQ px_len+8(FP), R12
	VBROADCASTSD s_X1+24(FP), Z31
	VBROADCASTSD s_Y1+32(FP), Z30
	VBROADCASTSD s_DX+40(FP), Z26
	VBROADCASTSD s_DY+48(FP), Z21
	VBROADCASTSD s_LenSq+56(FP), Z24
	VBROADCASTSD s_Width+64(FP), Z18
	VBROADCASTSD s_Soft+72(FP), Z17
	VBROADCASTSD cy+104(FP), Z20
	BCAST(0x3FE0000000000000, Z29) // 0.5
	BCAST(0x3FF0000000000000, Z22) // 1
	BCAST(0x7FFFFFFFFFFFFFFF, Z19) // all but the sign
	VPXORQ Z23, Z23, Z23           // +0
	VSUBPD Z30, Z20, Z25
	VMULPD Z21, Z25, Z25           // (cy-Y1)*DY
	VCMPPD $0x1E, Z23, Z24, K3     // every lane when LenSq > 0
	CVTSQ2SD x0+88(FP), X0
	VBROADCASTSD X0, Z28
	CVTSQ2SD step+96(FP), X1
	VBROADCASTSD X1, Z27
	VMULPD lanes<>(SB), Z27, Z1
	VADDPD Z1, Z28, Z28            // the eight columns
	BCAST(0x4020000000000000, Z1)  // 8
	VMULPD Z1, Z27, Z27            // eight columns on
	XORQ R9, R9                    // k
sr_loop:
	TAILMASK(sr_done)
	VADDPD    Z29, Z28, Z0 // cx
	// t, clamped to [0, 1], or 0 for a zero-length segment
	VSUBPD    Z31, Z0, Z1
	VMULPD    Z26, Z1, Z1
	VADDPD    Z25, Z1, Z1
	VDIVPD    Z24, Z1, Z1
	VMAXPD    Z1, Z23, Z1
	VMINPD    Z1, Z22, Z1
	VMOVAPD.Z Z1, K3, Z1
	// ex, ey
	VMULPD    Z26, Z1, Z2
	VADDPD    Z2, Z31, Z2  // qx
	VMULPD    Z21, Z1, Z3
	VADDPD    Z3, Z30, Z3  // qy
	VSUBPD    Z2, Z0, Z2   // ex
	VSUBPD    Z3, Z20, Z3  // ey
	// dist := math.Hypot(ex, ey)
	VPANDQ    Z19, Z2, Z2  // p
	VPANDQ    Z19, Z3, Z3  // q
	VPORQ     Z3, Z2, Z4
	VPTESTMQ  Z4, Z4, K4   // not both 0
	VMAXPD    Z3, Z2, Z4   // p > q ? p : q
	VMINPD    Z2, Z3, Z5   // q < p ? q : p
	VDIVPD    Z4, Z5, Z5
	VMULPD    Z5, Z5, Z5
	VADDPD    Z22, Z5, Z5
	VSQRTPD   Z5, Z5
	VMULPD    Z5, Z4, Z4
	VMOVAPD.Z Z4, K4, Z4   // dist
	// cov := 1 - (dist-Width)/Soft, stored where 0 < cov and px < cov
	VSUBPD    Z18, Z4, Z4
	VDIVPD    Z17, Z4, Z4
	VSUBPD    Z4, Z22, Z4
	VCMPPD    $0x1E, Z23, Z4, K1, K5
	VMINPD    Z4, Z22, Z4
	VMOVUPD.Z (DI)(R9*8), K1, Z6
	VCMPPD    $0x1E, Z6, Z4, K5, K6
	VMOVUPD   Z4, K6, (DI)(R9*8)
	VADDPD    Z27, Z28, Z28
	ADDQ $8, R9
	JMP  sr_loop
sr_done:
	VZEROUPPER
	RET
