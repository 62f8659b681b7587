//go:build amd64 && !purego

#include "textflag.h"

// func codeDotAVX2(a, b *int8, n int) int32
//
// AVX2 widening of the SSE2 kernel: VPMOVSXBW sign-extends 16 int8
// lanes straight from memory into 16×int16 ymm lanes (no unpack/shift
// idiom needed), VPMADDWD multiply-accumulates adjacent pairs into
// 8×int32, VPADDD accumulates. The main loop consumes 32 lanes per
// iteration (two 16-lane extends); a single 16-lane step covers the odd
// quantBlock, so any multiple of 16 is handled without scalar work.
// Overflow margins match the SSE2 kernel (per-pair products ≤ 2·128²,
// far inside int32 for any embedder dimensionality). n must be a
// positive multiple of 16. VZEROUPPER before return per the ABI —
// leaving the upper ymm state dirty stalls subsequent SSE code.
TEXT ·codeDotAVX2(SB), NOSPLIT, $0-28
	MOVQ  a+0(FP), SI
	MOVQ  b+8(FP), DI
	MOVQ  n+16(FP), CX
	VPXOR Y7, Y7, Y7

	CMPQ CX, $32
	JL   tail16

loop32:
	VPMOVSXBW (SI), Y0
	VPMOVSXBW (DI), Y1
	VPMADDWD  Y1, Y0, Y0
	VPADDD    Y0, Y7, Y7

	VPMOVSXBW 16(SI), Y2
	VPMOVSXBW 16(DI), Y3
	VPMADDWD  Y3, Y2, Y2
	VPADDD    Y2, Y7, Y7

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  loop32

tail16:
	// Rows are quantBlock (16) padded, so the remainder is 0 or 16.
	CMPQ CX, $16
	JL   done
	VPMOVSXBW (SI), Y0
	VPMOVSXBW (DI), Y1
	VPMADDWD  Y1, Y0, Y0
	VPADDD    Y0, Y7, Y7

done:
	// Horizontal sum of the eight int32 accumulator lanes.
	VEXTRACTI128 $1, Y7, X0
	VPADDD       X0, X7, X7
	VPSHUFD      $0xEE, X7, X0
	VPADDD       X0, X7, X7
	VPSHUFD      $0x55, X7, X0
	VPADDD       X0, X7, X7
	VMOVD        X7, AX
	VZEROUPPER
	MOVL AX, ret+24(FP)
	RET

// func codeDotGroupAVX2(rows *int8, nrows, stride int, qs *int16, out *int32)
//
// AVX2 form of codeDotGroupSSE2: one VPMOVSXBW widens a 16-lane block of
// the row, and four VPMADDWD take the four queries' pre-widened blocks
// straight from memory — one shuffle-port widening per block for the whole
// group, where codeDotAVX2 spends two per block per query. Three VPHADDD
// and a lane fold reduce the four accumulators to the four sums.
TEXT ·codeDotGroupAVX2(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), SI
	MOVQ nrows+8(FP), BX
	MOVQ stride+16(FP), DX
	MOVQ qs+24(FP), R8
	MOVQ out+32(FP), DI

row:
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  R8, R9
	MOVQ  DX, CX

block:
	VPMOVSXBW (SI), Y0
	VPMADDWD  (R9), Y0, Y1
	VPADDD    Y1, Y4, Y4
	VPMADDWD  32(R9), Y0, Y2
	VPADDD    Y2, Y5, Y5
	VPMADDWD  64(R9), Y0, Y1
	VPADDD    Y1, Y6, Y6
	VPMADDWD  96(R9), Y0, Y2
	VPADDD    Y2, Y7, Y7
	ADDQ      $16, SI
	ADDQ      $128, R9
	SUBQ      $16, CX
	JG        block

	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X0
	VPADDD       X0, X4, X4
	VMOVDQU      X4, (DI)

	ADDQ $16, DI
	DECQ BX
	JG   row
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

// func xgetbv0() (eax, edx uint32)
//
// Reads XCR0, which reports which register states the OS saves across
// context switches. Only call when CPUID leaf 1 reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
