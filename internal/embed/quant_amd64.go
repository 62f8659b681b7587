//go:build amd64 && !purego

package embed

// codeDot returns Σ a[i]·b[i] over int8 lanes via the best SIMD kernel
// the host supports: AVX2 (quant_avx2_amd64.s, 32 lanes per iteration,
// selected once at startup by CPUID) with the SSE2 kernel in
// quant_amd64.s as the universal amd64 fallback — SSE2 is the amd64
// baseline, so no path ever reaches the pure-Go loop except for scalar
// tails. Lengths must match; the kernels consume 16-lane blocks
// (quantized rows are quantBlock-padded) and codeDotGeneric covers any
// scalar tail.
func codeDot(a, b []int8) int32 {
	n := len(a) &^ (quantBlock - 1)
	var s int32
	if n > 0 {
		if useAVX2 {
			s = codeDotAVX2(&a[0], &b[0], n)
		} else {
			s = codeDotSSE2(&a[0], &b[0], n)
		}
	}
	if n < len(a) {
		s += codeDotGeneric(a[n:], b[n:len(a)])
	}
	return s
}

// codeDotGroup is the blocked kernel's dispatcher: AVX2 when the host has
// it, SSE2 otherwise (see groupShape for the arguments).
func codeDotGroup(rows []int8, stride int, qs []int16, out []int32) {
	if n := groupShape(rows, stride, qs, out); n > 0 {
		if useAVX2 {
			codeDotGroupAVX2(&rows[0], n, stride, &qs[0], &out[0])
		} else {
			codeDotGroupSSE2(&rows[0], n, stride, &qs[0], &out[0])
		}
	}
}

// useAVX2 gates the AVX2 kernel: detected once, branch-predicted free
// thereafter.
var useAVX2 = detectAVX2()

// detectAVX2 reports AVX2 availability the architecturally required way:
// the instruction set must exist (CPUID.7.0:EBX bit 5), the CPU must
// support saving extended state (CPUID.1:ECX OSXSAVE+AVX), and the OS
// must actually save xmm+ymm state across context switches (XCR0 bits
// 1-2) — an AVX2 CPU under an OS that doesn't manage ymm state would
// corrupt registers mid-goroutine without the XGETBV check.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	const avx = 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// codeDotSSE2 is implemented in quant_amd64.s. n must be a positive
// multiple of 16.
//
//go:noescape
func codeDotSSE2(a, b *int8, n int) int32

// codeDotAVX2 is implemented in quant_avx2_amd64.s. n must be a positive
// multiple of 16; only call when useAVX2.
//
//go:noescape
func codeDotAVX2(a, b *int8, n int) int32

// codeDotGroupSSE2 is implemented in quant_amd64.s; codeDotGroup checks
// its arguments.
//
//go:noescape
func codeDotGroupSSE2(rows *int8, nrows, stride int, qs *int16, out *int32)

// codeDotGroupAVX2 is implemented in quant_avx2_amd64.s; only call when
// useAVX2.
//
//go:noescape
func codeDotGroupAVX2(rows *int8, nrows, stride int, qs *int16, out *int32)

// cpuid and xgetbv0 are implemented in quant_avx2_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
