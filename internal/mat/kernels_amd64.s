// Fused trial-lane kernels (see kernels.go). Every entry point computes
//
//	dst[k] += x[i] * data[i*l + k]   for every row i
//
// vectorizing across k only — each k is one (column, trial-lane) output
// and stays an independent scalar IEEE-754 chain, multiplied then added
// with separate instructions (no FMA), so the results are bit-identical
// to the generic Go loop. Rows with x[i] == 0 are processed like any
// other (see mulVecLanesGeneric for why that is both exact and faster
// than a skip on real drive vectors). The dispatcher guarantees
// l % 8 == 0, which keeps both loops tail-free.

#include "textflag.h"

// func mulVecLanesAVX2(dst, data, x []float64, l int)
TEXT ·mulVecLanesAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ data_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ l+72(FP), R8
	XORQ R9, R9            // i
avx2_rows:
	CMPQ R9, CX
	JGE  avx2_done
	VMOVSD (DX)(R9*8), X0   // x[i]
	VBROADCASTSD X0, Y0
	MOVQ R9, AX
	IMULQ R8, AX
	LEAQ (SI)(AX*8), BX    // &data[i*l]
	XORQ R10, R10          // k
avx2_cols:
	VMOVUPD (BX)(R10*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(R10*8), Y1, Y1
	VMOVUPD Y1, (DI)(R10*8)
	VMOVUPD 32(BX)(R10*8), Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  32(DI)(R10*8), Y2, Y2
	VMOVUPD Y2, 32(DI)(R10*8)
	ADDQ $8, R10
	CMPQ R10, R8
	JL   avx2_cols
	INCQ R9
	JMP  avx2_rows
avx2_done:
	VZEROUPPER
	RET

// func mulVecLanesAVX512(dst, data, x []float64, l int)
TEXT ·mulVecLanesAVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ data_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ l+72(FP), R8
	XORQ R9, R9            // i
avx512_rows:
	CMPQ R9, CX
	JGE  avx512_done
	VMOVSD (DX)(R9*8), X0   // x[i]
	VBROADCASTSD X0, Z0
	MOVQ R9, AX
	IMULQ R8, AX
	LEAQ (SI)(AX*8), BX    // &data[i*l]
	XORQ R10, R10          // k
avx512_cols:
	VMOVUPD (BX)(R10*8), Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  (DI)(R10*8), Z1, Z1
	VMOVUPD Z1, (DI)(R10*8)
	ADDQ $8, R10
	CMPQ R10, R8
	JL   avx512_cols
	INCQ R9
	JMP  avx512_rows
avx512_done:
	VZEROUPPER
	RET

// func mulVecLanes80AVX512(dst, data, x []float64)
//
// Specialization of mulVecLanesAVX512 for l == 80 (10 columns x 8 trial
// lanes, the system's classifier-read shape): the whole 80-double
// accumulator block lives in ten ZMM registers for the entire call, so
// the per-row inner loop issues only loads — no dst traffic until the
// single spill at the end. Bit-identical to the generic loop for the
// same reasons as above.
TEXT ·mulVecLanes80AVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ data_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	VMOVUPD (DI), Z5
	VMOVUPD 64(DI), Z6
	VMOVUPD 128(DI), Z7
	VMOVUPD 192(DI), Z8
	VMOVUPD 256(DI), Z9
	VMOVUPD 320(DI), Z10
	VMOVUPD 384(DI), Z11
	VMOVUPD 448(DI), Z12
	VMOVUPD 512(DI), Z13
	VMOVUPD 576(DI), Z14
	XORQ R9, R9            // i
r80_rows:
	CMPQ R9, CX
	JGE  r80_done
	VMOVSD (DX)(R9*8), X0  // x[i]
	VBROADCASTSD X0, Z0
	IMUL3Q $640, R9, AX
	LEAQ (SI)(AX*1), BX    // &data[i*80]
	VMULPD (BX), Z0, Z16
	VADDPD Z16, Z5, Z5
	VMULPD 64(BX), Z0, Z17
	VADDPD Z17, Z6, Z6
	VMULPD 128(BX), Z0, Z18
	VADDPD Z18, Z7, Z7
	VMULPD 192(BX), Z0, Z19
	VADDPD Z19, Z8, Z8
	VMULPD 256(BX), Z0, Z20
	VADDPD Z20, Z9, Z9
	VMULPD 320(BX), Z0, Z21
	VADDPD Z21, Z10, Z10
	VMULPD 384(BX), Z0, Z22
	VADDPD Z22, Z11, Z11
	VMULPD 448(BX), Z0, Z23
	VADDPD Z23, Z12, Z12
	VMULPD 512(BX), Z0, Z24
	VADDPD Z24, Z13, Z13
	VMULPD 576(BX), Z0, Z25
	VADDPD Z25, Z14, Z14
	INCQ R9
	JMP  r80_rows
r80_done:
	VMOVUPD Z5, (DI)
	VMOVUPD Z6, 64(DI)
	VMOVUPD Z7, 128(DI)
	VMOVUPD Z8, 192(DI)
	VMOVUPD Z9, 256(DI)
	VMOVUPD Z10, 320(DI)
	VMOVUPD Z11, 384(DI)
	VMOVUPD Z12, 448(DI)
	VMOVUPD Z13, 512(DI)
	VMOVUPD Z14, 576(DI)
	VZEROUPPER
	RET

// func mulVecLanes24AVX512(dst, data, x []float64)
//
// Specialization of mulVecLanesAVX512 for l == 24 (a 10-class
// differential pair fused as 10 positive, 10 negative and 4 padding
// columns): the 24-double accumulator block lives in three ZMM
// registers for the entire call, so the per-row inner loop issues only
// loads. Bit-identical to the generic loop for the same reasons as
// above.
TEXT ·mulVecLanes24AVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ data_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	VMOVUPD (DI), Z5
	VMOVUPD 64(DI), Z6
	VMOVUPD 128(DI), Z7
	XORQ R9, R9            // i
r24_rows:
	CMPQ R9, CX
	JGE  r24_done
	VBROADCASTSD (DX)(R9*8), Z0 // x[i]
	VMULPD (SI), Z0, Z16
	VADDPD Z16, Z5, Z5
	VMULPD 64(SI), Z0, Z17
	VADDPD Z17, Z6, Z6
	VMULPD 128(SI), Z0, Z18
	VADDPD Z18, Z7, Z7
	ADDQ $192, SI          // next row: &data[(i+1)*24]
	INCQ R9
	JMP  r24_rows
r24_done:
	VMOVUPD Z5, (DI)
	VMOVUPD Z6, 64(DI)
	VMOVUPD Z7, 128(DI)
	VZEROUPPER
	RET

// TRANSPOSE8 transposes the 8x8 block of doubles whose rows are in
// Z0..Z7 into Z8..Z15: afterwards Z8+j holds element j of every row, row
// k in lane k. Z0..Z7 are clobbered. Three rounds of eight shuffles:
// interleave the rows' even and odd elements in pairs of rows, gather
// the pairs' 128-bit lanes by element parity, then by element half.
#define TRANSPOSE8 \
	VUNPCKLPD  Z1, Z0, Z8;         \
	VUNPCKHPD  Z1, Z0, Z9;         \
	VUNPCKLPD  Z3, Z2, Z10;        \
	VUNPCKHPD  Z3, Z2, Z11;        \
	VUNPCKLPD  Z5, Z4, Z12;        \
	VUNPCKHPD  Z5, Z4, Z13;        \
	VUNPCKLPD  Z7, Z6, Z14;        \
	VUNPCKHPD  Z7, Z6, Z15;        \
	VSHUFF64X2 $0x88, Z10, Z8, Z0; \
	VSHUFF64X2 $0xDD, Z10, Z8, Z2; \
	VSHUFF64X2 $0x88, Z11, Z9, Z1; \
	VSHUFF64X2 $0xDD, Z11, Z9, Z3; \
	VSHUFF64X2 $0x88, Z14, Z12, Z4; \
	VSHUFF64X2 $0xDD, Z14, Z12, Z6; \
	VSHUFF64X2 $0x88, Z15, Z13, Z5; \
	VSHUFF64X2 $0xDD, Z15, Z13, Z7; \
	VSHUFF64X2 $0x88, Z4, Z0, Z8;  \
	VSHUFF64X2 $0xDD, Z4, Z0, Z12; \
	VSHUFF64X2 $0x88, Z5, Z1, Z9;  \
	VSHUFF64X2 $0xDD, Z5, Z1, Z13; \
	VSHUFF64X2 $0x88, Z6, Z2, Z10; \
	VSHUFF64X2 $0xDD, Z6, Z2, Z14; \
	VSHUFF64X2 $0x88, Z7, Z3, Z11; \
	VSHUFF64X2 $0xDD, Z7, Z3, Z15

// LOADROWS loads the next eight elements of the eight rows into Z0..Z7.
#define LOADROWS \
	VMOVUPD (SI)(R8*8), Z0;  \
	VMOVUPD (SI)(R9*8), Z1;  \
	VMOVUPD (SI)(R10*8), Z2; \
	VMOVUPD (SI)(R11*8), Z3; \
	VMOVUPD (SI)(R12*8), Z4; \
	VMOVUPD (SI)(R13*8), Z5; \
	VMOVUPD (SI)(AX*8), Z6;  \
	VMOVUPD (SI)(DX*8), Z7

// DOT adds one feature, x in X and v at byte offset OFF from BX, into
// the x . v chain Z16.
#define DOT(X, OFF) \
	VMULPD.BCST OFF(BX), X, Z20; \
	VADDPD      Z20, Z16, Z16

// DOTSQ is DOT plus the square of the product into Z18.
#define DOTSQ(X, OFF) \
	VMULPD.BCST OFF(BX), X, Z20; \
	VADDPD      Z20, Z16, Z16;   \
	VMULPD      Z20, Z20, Z20;   \
	VADDPD      Z20, Z18, Z18

// GATHER loads the next element of the eight rows into X.
#define GATHER(X) \
	KXNORW     K1, K1, K1; \
	VPXORQ     X, X, X;    \
	VGATHERQPD (SI)(Z31*8), K1, X

// func scoreRows8AVX512(out *Scores8, data []float64, off *[8]int, v []float64, squares bool)
//
// ScoreRows8 with one row per lane. Whole blocks of eight features load
// eight elements of each row and transpose them in registers (gathers
// are several times slower on some CPUs); the last len(v) % 8 features
// are gathered one at a time. Each feature is multiplied by a broadcast
// of v. Each accumulator holds eight independent chains over
// ascending features, multiplied then added with separate instructions
// (never FMA), so every lane is bit-identical to scoreRows8Generic. The
// Go wrapper has checked every offset.
TEXT ·scoreRows8AVX512(SB), NOSPLIT, $0-65
	MOVQ off+32(FP), DI
	MOVQ (DI), R8          // the eight row offsets, in elements
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ 32(DI), R12
	MOVQ 40(DI), R13
	MOVQ 48(DI), AX
	MOVQ 56(DI), DX
	VMOVDQU64 (DI), Z31
	MOVQ data_base+8(FP), SI
	MOVQ v_base+40(FP), BX
	MOVQ v_len+48(FP), R14
	MOVQ R14, R15
	SHRQ $3, R15           // whole blocks of eight features
	ANDQ $7, R14           // features left for the gathers
	VPXORQ Z16, Z16, Z16   // x . v
	VPXORQ Z18, Z18, Z18   // sum (x o v)^2
	MOVBLZX squares+64(FP), DI
	TESTQ DI, DI
	JNZ  s8_sqblocks
s8_blocks:
	TESTQ R15, R15
	JZ   s8_tail
	LOADROWS
	TRANSPOSE8
	DOT(Z8, 0)
	DOT(Z9, 8)
	DOT(Z10, 16)
	DOT(Z11, 24)
	DOT(Z12, 32)
	DOT(Z13, 40)
	DOT(Z14, 48)
	DOT(Z15, 56)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ R15
	JMP  s8_blocks
s8_tail:
	TESTQ R14, R14
	JZ   s8_done
	GATHER(Z8)
	DOT(Z8, 0)
	ADDQ $8, SI
	ADDQ $8, BX
	DECQ R14
	JMP  s8_tail
s8_sqblocks:
	TESTQ R15, R15
	JZ   s8_sqtail
	LOADROWS
	TRANSPOSE8
	DOTSQ(Z8, 0)
	DOTSQ(Z9, 8)
	DOTSQ(Z10, 16)
	DOTSQ(Z11, 24)
	DOTSQ(Z12, 32)
	DOTSQ(Z13, 40)
	DOTSQ(Z14, 48)
	DOTSQ(Z15, 56)
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ R15
	JMP  s8_sqblocks
s8_sqtail:
	TESTQ R14, R14
	JZ   s8_done
	GATHER(Z8)
	DOTSQ(Z8, 0)
	ADDQ $8, SI
	ADDQ $8, BX
	DECQ R14
	JMP  s8_sqtail
s8_done:
	MOVQ out+0(FP), DI
	VMOVUPD Z16, (DI)
	VMOVUPD Z18, 64(DI)
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
