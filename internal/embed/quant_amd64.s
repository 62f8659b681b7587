//go:build amd64 && !purego

#include "textflag.h"

// func codeDotSSE2(a, b *int8, n int) int32
//
// Integer dot product over int8 lanes, 16 per iteration:
//
//   load 16 bytes of a and b            (MOVOU)
//   sign-extend each half to 8×int16    (PUNPCK{L,H}BW self + PSRAW $8)
//   multiply-accumulate pairs to int32  (PMADDWL)
//   accumulate                          (PADDL into X7)
//
// Per-lane products are ≤ 128², PMADDWL pairs stay well inside int32,
// and the four int32 accumulator lanes hold Σ|a·b| for any dimension the
// embedders produce (overflow needs dim > 2³¹/(2·128²) ≈ 65k per lane).
// n must be a positive multiple of 16; rows are quantBlock-padded so the
// Go wrapper only routes aligned blocks here.
TEXT ·codeDotSSE2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	PXOR X7, X7

loop:
	MOVOU (SI), X0
	MOVOU (DI), X1

	// Low 8 lanes: duplicate each byte into both halves of its word,
	// then arithmetic-shift right 8 to sign-extend.
	MOVOA     X0, X2
	PUNPCKLBW X2, X2
	PSRAW     $8, X2
	MOVOA     X1, X3
	PUNPCKLBW X3, X3
	PSRAW     $8, X3
	PMADDWL   X3, X2
	PADDL     X2, X7

	// High 8 lanes.
	MOVOA     X0, X4
	PUNPCKHBW X4, X4
	PSRAW     $8, X4
	MOVOA     X1, X5
	PUNPCKHBW X5, X5
	PSRAW     $8, X5
	PMADDWL   X5, X4
	PADDL     X4, X7

	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX
	JG   loop

	// Horizontal sum of the four int32 accumulator lanes.
	PSHUFD $0xEE, X7, X0
	PADDL  X0, X7
	PSHUFD $0x55, X7, X0
	PADDL  X0, X7
	MOVQ   X7, AX
	MOVL   AX, ret+24(FP)
	RET

// func codeDotGroupSSE2(rows *int8, nrows, stride int, qs *int16, out *int32)
//
// The blocked kernel: the dot products of groupWidth (4) pre-widened
// queries with each of nrows code rows of stride lanes. Each 16-lane block
// of a row is sign-extended to int16 once (the unpack/shift idiom above)
// and multiplied against the four queries' matching blocks, which qs holds
// interleaved — block c of query g at qs[(c·4 + g)·16] — so the query
// pointer only moves forward. out gets four int32 per row, query order.
// stride must be a positive multiple of 16.
TEXT ·codeDotGroupSSE2(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), SI
	MOVQ nrows+8(FP), BX
	MOVQ stride+16(FP), DX
	MOVQ qs+24(FP), R8
	MOVQ out+32(FP), DI

row:
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7
	MOVQ R8, R9
	MOVQ DX, CX

block:
	MOVOU     (SI), X0
	MOVOA     X0, X1
	PUNPCKLBW X0, X0
	PSRAW     $8, X0
	PUNPCKHBW X1, X1
	PSRAW     $8, X1

	MOVOU   (R9), X2
	PMADDWL X0, X2
	MOVOU   16(R9), X3
	PMADDWL X1, X3
	PADDL   X2, X4
	PADDL   X3, X4

	MOVOU   32(R9), X2
	PMADDWL X0, X2
	MOVOU   48(R9), X3
	PMADDWL X1, X3
	PADDL   X2, X5
	PADDL   X3, X5

	MOVOU   64(R9), X2
	PMADDWL X0, X2
	MOVOU   80(R9), X3
	PMADDWL X1, X3
	PADDL   X2, X6
	PADDL   X3, X6

	MOVOU   96(R9), X2
	PMADDWL X0, X2
	MOVOU   112(R9), X3
	PMADDWL X1, X3
	PADDL   X2, X7
	PADDL   X3, X7

	ADDQ $16, SI
	ADDQ $128, R9
	SUBQ $16, CX
	JG   block

	// Transpose-add the four accumulators into one vector of four sums:
	// interleave dwords pairwise, add, then interleave qwords and add.
	MOVOA      X4, X0
	PUNPCKLLQ  X5, X0
	PUNPCKHLQ  X5, X4
	PADDL      X4, X0
	MOVOA      X6, X1
	PUNPCKLLQ  X7, X1
	PUNPCKHLQ  X7, X6
	PADDL      X6, X1
	MOVOA      X0, X2
	PUNPCKLQDQ X1, X0
	PUNPCKHQDQ X1, X2
	PADDL      X2, X0
	MOVOU      X0, (DI)

	ADDQ $16, DI
	DECQ BX
	JG   row
	RET
