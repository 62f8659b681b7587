//go:build amd64 && !purego

package embed

import (
	"math/rand"
	"testing"
)

// TestCodeDotKernelsMatchGeneric pins both SIMD kernels — SSE2 and,
// where the host supports it, AVX2 — against the portable integer loop
// over every block-count shape the dispatcher can route to them: the
// odd 16-lane tail (exercising the AVX2 single-block path), 32-lane
// multiples, large rows, and extremal codes (-128 everywhere, the
// sign-extension stress case).
func TestCodeDotKernelsMatchGeneric(t *testing.T) {
	if !useAVX2 {
		t.Log("AVX2 unavailable on this host; SSE2 kernel only")
	}
	rng := rand.New(rand.NewSource(43))
	lengths := []int{16, 32, 48, 64, 16 * 7, 16 * 16, 16 * 33, 16 * 100}
	kernels := []struct {
		name string
		fn   func(a, b *int8, n int) int32
		ok   bool
	}{
		{"SSE2", codeDotSSE2, true},
		{"AVX2", codeDotAVX2, useAVX2},
	}
	for trial := 0; trial < 30; trial++ {
		for _, n := range lengths {
			a := make([]int8, n)
			b := make([]int8, n)
			for i := range a {
				a[i] = int8(rng.Intn(256) - 128)
				b[i] = int8(rng.Intn(256) - 128)
			}
			switch trial {
			case 0: // extremal: every product is (+128)² scale
				for i := range a {
					a[i], b[i] = -128, -128
				}
			case 1: // alternating extremes across pair boundaries
				for i := range a {
					if i%2 == 0 {
						a[i], b[i] = -128, 127
					} else {
						a[i], b[i] = 127, -128
					}
				}
			}
			want := codeDotGeneric(a, b)
			for _, k := range kernels {
				if !k.ok {
					continue
				}
				if got := k.fn(&a[0], &b[0], n); got != want {
					t.Fatalf("%s n=%d trial=%d: got %d, want %d", k.name, n, trial, got, want)
				}
			}
		}
	}
}

// groupKernels are the blocked assembly kernels this host can run, behind
// the shape check codeDotGroup makes.
func groupKernels() []groupKernel {
	wrap := func(fn func(rows *int8, nrows, stride int, qs *int16, out *int32)) func([]int8, int, []int16, []int32) {
		return func(rows []int8, stride int, qs []int16, out []int32) {
			if n := groupShape(rows, stride, qs, out); n > 0 {
				fn(&rows[0], n, stride, &qs[0], &out[0])
			}
		}
	}
	kernels := []groupKernel{{"SSE2", wrap(codeDotGroupSSE2)}}
	if useAVX2 {
		kernels = append(kernels, groupKernel{"AVX2", wrap(codeDotGroupAVX2)})
	}
	return kernels
}

// TestCodeDotDispatchTails drives the public seam with unpadded lengths,
// so the SIMD block + generic tail split is covered under whichever
// kernel the dispatcher selected.
func TestCodeDotDispatchTails(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 15, 17, 31, 33, 47, 255, 257} {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
			b[i] = int8(rng.Intn(256) - 128)
		}
		if got, want := codeDot(a, b), codeDotGeneric(a, b); got != want {
			t.Fatalf("n=%d: codeDot = %d, generic = %d", n, got, want)
		}
	}
}

func BenchmarkCodeDotSSE2(b *testing.B) {
	benchKernel(b, codeDotSSE2)
}

func BenchmarkCodeDotAVX2(b *testing.B) {
	if !useAVX2 {
		b.Skip("AVX2 unavailable")
	}
	benchKernel(b, codeDotAVX2)
}

func benchKernel(b *testing.B, fn func(a, b *int8, n int) int32) {
	const n = 256 // DefaultDim code row
	x := make([]int8, n)
	y := make([]int8, n)
	for i := range x {
		x[i] = int8(i%251 - 125)
		y[i] = int8((i*7)%251 - 125)
	}
	b.SetBytes(2 * n)
	for i := 0; i < b.N; i++ {
		fn(&x[0], &y[0], n)
	}
}
