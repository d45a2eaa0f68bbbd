// The SGD sweep's SIMD kernels (see screen.go). ScreenRow's, unlike
// every other kernel in this package, are not bit-identical to a scalar
// chain: each sum runs in several accumulators with fused multiply-adds,
// so their results only ever pick a branch that ScreenMatrix's bound
// proves the exact chain picks too (DESIGN §4.1, §12.2). StepRow's are
// exact, one weight per lane, and so is halfRow's: NewScreenMatrix's
// binary16 bits and lane sums, every lane halfRowGeneric's loop.
//
// The AVX-512 kernels use AVX-512F (and AVX) encodings, but for
// screenRowAVX512's loads, F16C's VEX VCVTPH2PS, one micro-op where the
// ZMM form takes two and a shuffle (DESIGN §4.1); kernels_amd64.go
// installs it only where CPUID reports F16C. The AVX2 ones need FMA and
// F16C beside AVX2, checked likewise.

#include "textflag.h"

// WIDEN32 loads 32 binary16 features at SI into Z0..Z3 as float64,
// exactly: F16C's VCVTPH2PS to float32, eight at a time, then
// VCVTPS2PD.
#define WIDEN32 \
	VCVTPH2PS (SI), Y0;   \
	VCVTPH2PS 16(SI), Y1; \
	VCVTPH2PS 32(SI), Y2; \
	VCVTPH2PS 48(SI), Y3; \
	VCVTPS2PD Y0, Z0;     \
	VCVTPS2PD Y1, Z1;     \
	VCVTPS2PD Y2, Z2;     \
	VCVTPS2PD Y3, Z3

// SCREEN4 adds 32 features, x in Z0..Z3 and w and prev at BX and R12,
// into the x . w chains Z16..Z19 and the x . prev chains Z20..Z23.
#define SCREEN4 \
	VFMADD231PD (BX), Z0, Z16;      \
	VFMADD231PD 64(BX), Z1, Z17;    \
	VFMADD231PD 128(BX), Z2, Z18;   \
	VFMADD231PD 192(BX), Z3, Z19;   \
	VFMADD231PD (R12), Z0, Z20;     \
	VFMADD231PD 64(R12), Z1, Z21;   \
	VFMADD231PD 128(R12), Z2, Z22;  \
	VFMADD231PD 192(R12), Z3, Z23

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

// func screenRowAVX512(out *Screen, data []uint16, off, next int, w, prev []float64, squares bool)
//
// The row at element off is read in blocks of 32 features (one cache
// line), then blocks of eight, then the last n % 8 features, whose
// widened lanes and loads of w and prev an opmask limits to the row;
// the tail converts eight elements, the rest inside the screenPad
// elements NewScreenMatrix allocates past the last row. The sums run
// in Z16..Z31, so that VEX instructions can take the low registers.
// Each block of 32 prefetches the same stretch of the row at next. The
// Go wrapper has checked both offsets.
TEXT ·screenRowAVX512(SB), NOSPLIT, $0-97
	MOVQ data_base+8(FP), SI
	MOVQ off+32(FP), AX
	LEAQ (SI)(AX*2), SI    // the row
	MOVQ next+40(FP), AX
	MOVQ data_base+8(FP), DX
	LEAQ (DX)(AX*2), DX    // the row to prefetch
	MOVQ w_base+48(FP), BX
	MOVQ w_len+56(FP), R8
	MOVQ prev_base+72(FP), R12
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
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
	WIDEN32
	PREFETCHT0 (DX)
	SCREEN4
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $256, BX
	ADDQ $256, R12
	DECQ R9
	JMP  blocks32
blocks8:
	PREFETCHT0 (DX)
	PREFETCHT0 63(DX)
b8_loop:
	TESTQ R10, R10
	JZ   tail
	VCVTPH2PS (SI), Y0
	VCVTPS2PD Y0, Z0
	VFMADD231PD (BX), Z0, Z16
	VFMADD231PD (R12), Z0, Z20
	ADDQ $16, SI
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
	VCVTPH2PS (SI), Y0
	VCVTPS2PD.Z Y0, K1, Z0
	VFMADD231PD (BX), Z0, K1, Z16
	VFMADD231PD (R12), Z0, K1, Z20

reduce:
	// Each sum's 32 lanes into one, both sums side by side in X0.
	SUM4(Z16, Z17, Z18, Z19)
	SUM4(Z20, Z21, Z22, Z23)
	VMOVAPD       Z16, Z0
	VMOVAPD       Z20, Z4
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
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
sq_blocks32:
	TESTQ R9, R9
	JZ   sq_blocks8
	WIDEN32
	PREFETCHT0 (DX)
	SCREENSQ(Z0, 0, Z16, Z20, Z24, Z28, Z4, Z5)
	SCREENSQ(Z1, 64, Z17, Z21, Z25, Z29, Z6, Z7)
	SCREENSQ(Z2, 128, Z18, Z22, Z26, Z30, Z8, Z9)
	SCREENSQ(Z3, 192, Z19, Z23, Z27, Z31, Z10, Z11)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $256, BX
	ADDQ $256, R12
	DECQ R9
	JMP  sq_blocks32
sq_blocks8:
	PREFETCHT0 (DX)
	PREFETCHT0 63(DX)
sq_b8_loop:
	TESTQ R10, R10
	JZ   sq_tail
	VCVTPH2PS (SI), Y0
	VCVTPS2PD Y0, Z0
	SCREENSQ(Z0, 0, Z16, Z20, Z24, Z28, Z4, Z5)
	ADDQ $16, SI
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
	VCVTPH2PS (SI), Y0
	VCVTPS2PD.Z Y0, K1, Z0
	VMULPD.Z (BX), Z0, K1, Z4
	VMULPD.Z (R12), Z0, K1, Z5
	VADDPD Z4, Z16, Z16
	VADDPD Z5, Z20, Z20
	VFMADD231PD Z4, Z4, Z24
	VFMADD231PD Z5, Z5, Z28

sq_reduce:
	// Each sum's 32 lanes into one, the four sums side by side in Y1,
	// in Screen's field order.
	SUM4(Z16, Z17, Z18, Z19)
	SUM4(Z20, Z21, Z22, Z23)
	SUM4(Z24, Z25, Z26, Z27)
	SUM4(Z28, Z29, Z30, Z31)
	VMOVAPD       Z16, Z0
	VMOVAPD       Z20, Z4
	VMOVAPD       Z24, Z8
	VMOVAPD       Z28, Z12
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

// HALF16 rounds 16 float64s, lanes 0-7 in Z8 and 8-15 in Z9, to
// binary16 in Y12 (VCVTPD2PS, then VCVTPS2PH $0: ties to even at both
// steps) and widens them back, exactly, into Z13 and Z14.
#define HALF16 \
	VCVTPD2PS     Z8, Y10;          \
	VCVTPD2PS     Z9, Y11;          \
	VINSERTF64X4  $1, Y11, Z10, Z10; \
	VCVTPS2PH     $0, Z10, Y12;     \
	VCVTPH2PS     Y12, Z13;         \
	VEXTRACTF64X4 $1, Z13, Y14;     \
	VCVTPS2PD     Y13, Z13;         \
	VCVTPS2PD     Y14, Z14

// HALFERR adds eight lanes of x in X and its binary16 value x̂ in XH into
// the lane sums of e = |x - x̂| (E), e*(|x| + |x̂|) (EX), |x| (L1) and
// x^2 (L2), each operation rounded on its own as halfRowGeneric's loop
// rounds it; Z31 holds the mask that clears a float64's sign.
#define HALFERR(X, XH, E, EX, L1, L2) \
	VSUBPD XH, X, Z15;    \
	VPANDQ Z31, Z15, Z15; \
	VPANDQ Z31, X, Z16;   \
	VPANDQ Z31, XH, Z17;  \
	VADDPD Z17, Z16, Z17; \
	VMULPD Z17, Z15, Z17; \
	VADDPD Z15, E, E;     \
	VADDPD Z17, EX, EX;   \
	VADDPD Z16, L1, L1;   \
	VMULPD Z16, Z16, Z16; \
	VADDPD Z16, L2, L2

// func halfRowAVX512(dst []uint16, x []float64, acc *[4][16]float64)
//
// NewScreenMatrix's pass over one row, 16 features per step, lane q % 16
// of each sum in Z0..Z7 (acc[k]'s lanes 0-7, then 8-15); the last
// len(x) % 16 features load and store under opmasks, and their unused
// lanes add zeros. It writes the sums to acc. The Go wrapper has
// checked the lengths.
TEXT ·halfRowAVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ acc+48(FP), AX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ $0x7fffffffffffffff, DX
	VPBROADCASTQ DX, Z31
	MOVQ CX, R8
	SHRQ $4, R8            // blocks of 16
	ANDQ $15, CX           // then the features left
half_blocks:
	TESTQ R8, R8
	JZ   half_tail
	VMOVUPD (SI), Z8
	VMOVUPD 64(SI), Z9
	HALF16
	VMOVDQU Y12, (DI)
	HALFERR(Z8, Z13, Z0, Z2, Z4, Z6)
	HALFERR(Z9, Z14, Z1, Z3, Z5, Z7)
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ R8
	JMP  half_blocks
half_tail:
	TESTQ CX, CX
	JZ   half_done
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K2           // the elements left, one bit each
	KMOVW DX, K3           // of them, lanes 0-7
	SHRL $8, DX
	KMOVW DX, K4           // and lanes 8-15
	VMOVUPD.Z (SI), K3, Z8
	VMOVUPD.Z 64(SI), K4, Z9
	HALF16
	VCVTPS2PH $0, Z10, K2, (DI)
	HALFERR(Z8, Z13, Z0, Z2, Z4, Z6)
	HALFERR(Z9, Z14, Z1, Z3, Z5, Z7)
half_done:
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	VMOVUPD Z4, 256(AX)
	VMOVUPD Z5, 320(AX)
	VMOVUPD Z6, 384(AX)
	VMOVUPD Z7, 448(AX)
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

// tailmask holds four all-ones quadwords, then four zeros: the 32 bytes
// at tailmask+32-8r select lanes 0 to r-1 of a YMM register.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAILMASK loads the mask of the first CX lanes into Y15, through AX and
// R11.
#define TAILMASK \
	LEAQ    tailmask<>+32(SB), AX; \
	MOVQ    CX, R11;               \
	SHLQ    $3, R11;               \
	SUBQ    R11, AX;               \
	VMOVUPD (AX), Y15

// WIDEN4 loads four binary16 features at byte offset OFF from SI into
// Y as float64, exactly.
#define WIDEN4(OFF, Y, X) \
	VCVTPH2PS OFF(SI), X; \
	VCVTPS2PD X, Y

// SCREENSQ4 adds four features, x in X and w and prev at byte offset OFF
// from BX and R12, into the chains D, P, S and Q through T and U, as
// SCREENSQ does eight.
#define SCREENSQ4(X, OFF, D, P, S, Q, T, U) \
	VMULPD      OFF(BX), X, T;  \
	VMULPD      OFF(R12), X, U; \
	VADDPD      T, D, D;        \
	VADDPD      U, P, P;        \
	VFMADD231PD T, T, S;        \
	VFMADD231PD U, U, Q

// func screenRowAVX2(out *Screen, data []uint16, off, next int, w, prev []float64, squares bool)
//
// ScreenRow on AVX2 with FMA and F16C: four features per VCVTPH2PS,
// blocks of 16 (eight with the squares), then of four, then the last
// n % 4 features, whose widened lanes a mask clears and whose loads of
// w and prev VMASKMOVPD limits to the slices. A block of four converts
// four elements wherever the row ends, inside the screenPad elements
// NewScreenMatrix allocates past the last row. Each block prefetches
// the same stretch of the row at next. The Go wrapper has checked both
// offsets.
TEXT ·screenRowAVX2(SB), NOSPLIT, $0-97
	MOVQ data_base+8(FP), SI
	MOVQ off+32(FP), AX
	LEAQ (SI)(AX*2), SI    // the row
	MOVQ next+40(FP), AX
	MOVQ data_base+8(FP), DX
	LEAQ (DX)(AX*2), DX    // the row to prefetch
	MOVQ w_base+48(FP), BX
	MOVQ w_len+56(FP), R8
	MOVQ prev_base+72(FP), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R8, CX
	ANDQ $3, CX            // the features after the blocks of four
	MOVBLZX squares+96(FP), AX
	TESTQ AX, AX
	JNZ  a2sq_start

	// x . w in Y0..Y3, x . prev in Y4..Y7.
	MOVQ R8, R9
	SHRQ $4, R9            // blocks of 16
	MOVQ R8, R10
	SHRQ $2, R10
	ANDQ $3, R10           // then blocks of 4
a2_blocks16:
	TESTQ R9, R9
	JZ   a2_blocks4
	WIDEN4(0, Y8, X8)
	WIDEN4(8, Y9, X9)
	WIDEN4(16, Y10, X10)
	WIDEN4(24, Y11, X11)
	PREFETCHT0 (DX)
	VFMADD231PD (BX), Y8, Y0
	VFMADD231PD 32(BX), Y9, Y1
	VFMADD231PD 64(BX), Y10, Y2
	VFMADD231PD 96(BX), Y11, Y3
	VFMADD231PD (R12), Y8, Y4
	VFMADD231PD 32(R12), Y9, Y5
	VFMADD231PD 64(R12), Y10, Y6
	VFMADD231PD 96(R12), Y11, Y7
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $128, BX
	ADDQ $128, R12
	DECQ R9
	JMP  a2_blocks16
a2_blocks4:
	PREFETCHT0 (DX)
	PREFETCHT0 31(DX)
a2_b4_loop:
	TESTQ R10, R10
	JZ   a2_tail
	WIDEN4(0, Y8, X8)
	VFMADD231PD (BX), Y8, Y0
	VFMADD231PD (R12), Y8, Y4
	ADDQ $8, SI
	ADDQ $32, BX
	ADDQ $32, R12
	DECQ R10
	JMP  a2_b4_loop
a2_tail:
	TESTQ CX, CX
	JZ   a2_reduce
	TAILMASK
	WIDEN4(0, Y8, X8)
	VANDPD     Y15, Y8, Y8
	VMASKMOVPD (BX), Y15, Y9
	VMASKMOVPD (R12), Y15, Y10
	VFMADD231PD Y9, Y8, Y0
	VFMADD231PD Y10, Y8, Y4

a2_reduce:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VHADDPD Y4, Y0, Y0     // x.w and x.prev lanes 0+1, then 2+3
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X0
	MOVQ    out+0(FP), DI
	VMOVUPD X0, (DI)
	VXORPD  X1, X1, X1     // no squares
	VMOVUPD X1, 16(DI)
	VZEROUPPER
	RET

a2sq_start:
	// x . w in Y0, Y1, x . prev in Y2, Y3, the squares in Y4, Y5 and
	// Y6, Y7: features 0-3 of each block of eight into the first of
	// each pair, 4-7 into the second.
	MOVQ R8, R9
	SHRQ $3, R9            // blocks of 8
	MOVQ R8, R10
	SHRQ $2, R10
	ANDQ $1, R10           // then a block of 4
a2sq_blocks8:
	TESTQ R9, R9
	JZ   a2sq_block4
	WIDEN4(0, Y8, X8)
	WIDEN4(8, Y9, X9)
	PREFETCHT0 (DX)
	SCREENSQ4(Y8, 0, Y0, Y2, Y4, Y6, Y12, Y13)
	SCREENSQ4(Y9, 32, Y1, Y3, Y5, Y7, Y14, Y15)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $64, BX
	ADDQ $64, R12
	DECQ R9
	JMP  a2sq_blocks8
a2sq_block4:
	PREFETCHT0 (DX)
	TESTQ R10, R10
	JZ   a2sq_tail
	WIDEN4(0, Y8, X8)
	SCREENSQ4(Y8, 0, Y0, Y2, Y4, Y6, Y12, Y13)
	ADDQ $8, SI
	ADDQ $32, BX
	ADDQ $32, R12
a2sq_tail:
	TESTQ CX, CX
	JZ   a2sq_reduce
	TAILMASK
	WIDEN4(0, Y8, X8)
	VANDPD     Y15, Y8, Y8
	VMASKMOVPD (BX), Y15, Y9
	VMASKMOVPD (R12), Y15, Y10
	VMULPD     Y9, Y8, Y12
	VMULPD     Y10, Y8, Y13
	VADDPD     Y12, Y1, Y1
	VADDPD     Y13, Y3, Y3
	VFMADD231PD Y12, Y12, Y5
	VFMADD231PD Y13, Y13, Y7

a2sq_reduce:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VHADDPD Y2, Y0, Y0     // x.w and x.prev lanes 0+1, then 2+3
	VHADDPD Y6, Y4, Y4     // the squares' likewise
	VPERM2F128 $0x20, Y4, Y0, Y1
	VPERM2F128 $0x31, Y4, Y0, Y2
	VADDPD  Y2, Y1, Y1
	MOVQ    out+0(FP), DI
	VMOVUPD Y1, (DI)
	VZEROUPPER
	RET

// STEP4 is STEP8 on the four features of w in Y7 and x in Y6, the
// result in Y7: Y1..Y5 hold ny, coef, rate, wmax and -wmax.
#define STEP4 \
	VMULPD Y6, Y1, Y8; \
	VMULPD Y6, Y2, Y9; \
	VMULPD Y6, Y9, Y9; \
	VMULPD Y7, Y9, Y9; \
	VADDPD Y9, Y8, Y8; \
	VMULPD Y8, Y3, Y8; \
	VSUBPD Y8, Y7, Y7; \
	VMINPD Y7, Y4, Y7; \
	VMAXPD Y7, Y5, Y7

// func stepRowAVX2(w, x []float64, ny, coef, rate, wmax float64)
//
// StepRow four features per step, every lane the scalar loop's
// operations in its order, then the last len(w) % 4 features loaded
// and stored with VMASKMOVPD. The Go wrapper has checked the lengths.
TEXT ·stepRowAVX2(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD ny+48(FP), Y1
	VBROADCASTSD coef+56(FP), Y2
	VBROADCASTSD rate+64(FP), Y3
	VBROADCASTSD wmax+72(FP), Y4
	MOVQ $0x8000000000000000, AX
	VMOVQ AX, X5
	VPBROADCASTQ X5, Y5
	VXORPD Y4, Y5, Y5      // -wmax, a sign flip as Go's negation
	MOVQ CX, DX
	SHRQ $2, DX
	ANDQ $3, CX
a2step_blocks:
	TESTQ DX, DX
	JZ   a2step_tail
	VMOVUPD (SI), Y6
	VMOVUPD (DI), Y7
	STEP4
	VMOVUPD Y7, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JMP  a2step_blocks
a2step_tail:
	TESTQ CX, CX
	JZ   a2step_done
	TAILMASK
	VMASKMOVPD (SI), Y15, Y6
	VMASKMOVPD (DI), Y15, Y7
	STEP4
	VMASKMOVPD Y7, Y15, (DI)
a2step_done:
	VZEROUPPER
	RET
