// The SGD sweep's AVX-512 kernels (see screen.go). ScreenRow's, unlike
// every other kernel in this package, is not bit-identical to a scalar
// chain: each sum runs in four accumulators of eight lanes with fused
// multiply-adds, so its results only ever pick a branch that
// ScreenMatrix's bound proves the exact chain picks too (DESIGN §4.1,
// §12.2). StepRow's is exact, one weight per lane.

#include "textflag.h"

// SCREEN4 adds 32 features, x in Z16..Z19 (float32 widened to float64)
// and w and prev at BX and R12, into the x . w chains Z0..Z3 and the
// x . prev chains Z4..Z7.
#define SCREEN4 \
	VFMADD231PD (BX), Z16, Z0;     \
	VFMADD231PD 64(BX), Z17, Z1;   \
	VFMADD231PD 128(BX), Z18, Z2;  \
	VFMADD231PD 192(BX), Z19, Z3;  \
	VFMADD231PD (R12), Z16, Z4;    \
	VFMADD231PD 64(R12), Z17, Z5;  \
	VFMADD231PD 128(R12), Z18, Z6; \
	VFMADD231PD 192(R12), Z19, Z7

// SCREENSQ adds eight features, x in X and w and prev at byte offset OFF
// from BX and R12, into the chains D (x . w), P (x . prev), S (sum of
// (x o w)^2) and Q (sum of (x o prev)^2), through T and U.
#define SCREENSQ(X, OFF, D, P, S, Q, T, U) \
	VMULPD      OFF(BX), X, T;  \
	VMULPD      OFF(R12), X, U; \
	VADDPD      T, D, D;        \
	VADDPD      U, P, P;        \
	VFMADD231PD T, T, S;        \
	VFMADD231PD U, U, Q

// SUM4 adds the four accumulators A..D into A.
#define SUM4(A, B, C, D) \
	VADDPD B, A, A; \
	VADDPD D, C, C; \
	VADDPD C, A, A

// func screenRowAVX512(out *Screen, data []float32, off, next int, w, prev []float64, squares bool)
//
// The row at element off is read in blocks of 32 features (four per
// VCVTPS2PD), then blocks of eight, then the last n % 8 features under
// an opmask, which also keeps the loads of w and prev inside their
// slices. Each block prefetches the same stretch of the row at next.
// The Go wrapper has checked both offsets.
TEXT ·screenRowAVX512(SB), NOSPLIT, $0-97
	MOVQ data_base+8(FP), SI
	MOVQ off+32(FP), AX
	LEAQ (SI)(AX*4), SI    // the row
	MOVQ next+40(FP), AX
	MOVQ data_base+8(FP), DX
	LEAQ (DX)(AX*4), DX    // the row to prefetch
	MOVQ w_base+48(FP), BX
	MOVQ w_len+56(FP), R8
	MOVQ prev_base+72(FP), R12
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ R8, R9
	SHRQ $5, R9            // blocks of 32
	MOVQ R8, R10
	SHRQ $3, R10
	ANDQ $3, R10           // then blocks of 8
	MOVQ R8, CX
	ANDQ $7, CX            // then the features left
	MOVBLZX squares+96(FP), AX
	TESTQ AX, AX
	JNZ  sq_start

blocks32:
	TESTQ R9, R9
	JZ   blocks8
	VCVTPS2PD (SI), Z16
	VCVTPS2PD 32(SI), Z17
	VCVTPS2PD 64(SI), Z18
	VCVTPS2PD 96(SI), Z19
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
	SCREEN4
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $256, BX
	ADDQ $256, R12
	DECQ R9
	JMP  blocks32
blocks8:
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
b8_loop:
	TESTQ R10, R10
	JZ   tail
	VCVTPS2PD (SI), Z16
	VFMADD231PD (BX), Z16, Z0
	VFMADD231PD (R12), Z16, Z4
	ADDQ $32, SI
	ADDQ $64, BX
	ADDQ $64, R12
	DECQ R10
	JMP  b8_loop
tail:
	TESTQ CX, CX
	JZ   reduce
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VCVTPS2PD.Z (SI), K1, Z16
	VFMADD231PD (BX), Z16, K1, Z0
	VFMADD231PD (R12), Z16, K1, Z4

reduce:
	// Each sum's 32 lanes into one, both sums side by side in X0.
	SUM4(Z0, Z1, Z2, Z3)
	SUM4(Z4, Z5, Z6, Z7)
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD        Y1, Y0, Y0
	VEXTRACTF64X4 $1, Z4, Y5
	VADDPD        Y5, Y4, Y4
	VHADDPD       Y4, Y0, Y0 // x.w and x.prev lanes 0+1, then 2+3
	VEXTRACTF128  $1, Y0, X1
	VADDPD        X1, X0, X0
	MOVQ          out+0(FP), DI
	VMOVUPD       X0, (DI)
	VXORPD        X1, X1, X1 // no squares
	VMOVUPD       X1, 16(DI)
	VZEROUPPER
	RET

sq_start:
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
sq_blocks32:
	TESTQ R9, R9
	JZ   sq_blocks8
	VCVTPS2PD (SI), Z16
	VCVTPS2PD 32(SI), Z17
	VCVTPS2PD 64(SI), Z18
	VCVTPS2PD 96(SI), Z19
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
	SCREENSQ(Z16, 0, Z0, Z4, Z8, Z12, Z20, Z21)
	SCREENSQ(Z17, 64, Z1, Z5, Z9, Z13, Z22, Z23)
	SCREENSQ(Z18, 128, Z2, Z6, Z10, Z14, Z20, Z21)
	SCREENSQ(Z19, 192, Z3, Z7, Z11, Z15, Z22, Z23)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $256, BX
	ADDQ $256, R12
	DECQ R9
	JMP  sq_blocks32
sq_blocks8:
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
sq_b8_loop:
	TESTQ R10, R10
	JZ   sq_tail
	VCVTPS2PD (SI), Z16
	SCREENSQ(Z16, 0, Z0, Z4, Z8, Z12, Z20, Z21)
	ADDQ $32, SI
	ADDQ $64, BX
	ADDQ $64, R12
	DECQ R10
	JMP  sq_b8_loop
sq_tail:
	TESTQ CX, CX
	JZ   sq_reduce
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VCVTPS2PD.Z (SI), K1, Z16
	VMULPD.Z (BX), Z16, K1, Z20
	VMULPD.Z (R12), Z16, K1, Z21
	VADDPD Z20, Z0, Z0
	VADDPD Z21, Z4, Z4
	VFMADD231PD Z20, Z20, Z8
	VFMADD231PD Z21, Z21, Z12

sq_reduce:
	// Each sum's 32 lanes into one, the four sums side by side in Y1,
	// in Screen's field order.
	SUM4(Z0, Z1, Z2, Z3)
	SUM4(Z4, Z5, Z6, Z7)
	SUM4(Z8, Z9, Z10, Z11)
	SUM4(Z12, Z13, Z14, Z15)
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD        Y1, Y0, Y0
	VEXTRACTF64X4 $1, Z4, Y5
	VADDPD        Y5, Y4, Y4
	VEXTRACTF64X4 $1, Z8, Y9
	VADDPD        Y9, Y8, Y8
	VEXTRACTF64X4 $1, Z12, Y13
	VADDPD        Y13, Y12, Y12
	VHADDPD       Y4, Y0, Y0     // x.w and x.prev lanes 0+1, then 2+3
	VHADDPD       Y12, Y8, Y8    // the squares' likewise
	VPERM2F128    $0x20, Y8, Y0, Y1
	VPERM2F128    $0x31, Y8, Y0, Y2
	VADDPD        Y2, Y1, Y1
	MOVQ          out+0(FP), DI
	VMOVUPD       Y1, (DI)
	VZEROUPPER
	RET

// STEP8 applies StepRow to the eight features of w in Z7 and x in Z6
// under the opmask K, the result in Z7: Z1..Z5 hold ny, coef, rate,
// wmax and -wmax. The clamp passes w as VMINPD's and VMAXPD's second
// source, which they return when the comparison fails, a NaN included.
#define STEP8(K) \
	VMULPD Z6, Z1, K, Z8; \
	VMULPD Z6, Z2, K, Z9; \
	VMULPD Z6, Z9, K, Z9; \
	VMULPD Z7, Z9, K, Z9; \
	VADDPD Z9, Z8, K, Z8; \
	VMULPD Z8, Z3, K, Z8; \
	VSUBPD Z8, Z7, K, Z7; \
	VMINPD Z7, Z4, K, Z7; \
	VMAXPD Z7, Z5, K, Z7

// func stepRowAVX512(w, x []float64, ny, coef, rate, wmax float64)
//
// StepRow eight features per step, every lane the scalar loop's
// operations in its order, then the last len(w) % 8 features under an
// opmask. The Go wrapper has checked the lengths.
TEXT ·stepRowAVX512(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD ny+48(FP), Z1
	VBROADCASTSD coef+56(FP), Z2
	VBROADCASTSD rate+64(FP), Z3
	VBROADCASTSD wmax+72(FP), Z4
	MOVQ $0x8000000000000000, AX
	VPBROADCASTQ AX, Z5
	VPXORQ Z4, Z5, Z5      // -wmax, a sign flip as Go's negation
	KXNORW K2, K2, K2      // every lane
	MOVQ CX, DX
	SHRQ $3, DX
	ANDQ $7, CX
step_blocks:
	TESTQ DX, DX
	JZ   step_tail
	VMOVUPD (SI), Z6
	VMOVUPD (DI), Z7
	STEP8(K2)
	VMOVUPD Z7, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JMP  step_blocks
step_tail:
	TESTQ CX, CX
	JZ   step_done
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	VMOVUPD.Z (SI), K1, Z6
	VMOVUPD.Z (DI), K1, Z7
	STEP8(K1)
	VMOVUPD Z7, K1, (DI)
step_done:
	VZEROUPPER
	RET
