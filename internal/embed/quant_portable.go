//go:build !amd64 || purego

package embed

// codeDot and codeDotGroup fall back to the portable integer kernels off
// amd64 (or under the purego build tag).
func codeDot(a, b []int8) int32 { return codeDotGeneric(a, b) }

func codeDotGroup(rows []int8, stride int, qs []int16, out []int32) {
	codeDotGroupGeneric(rows, stride, qs, out)
}
