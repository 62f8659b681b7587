//go:build !amd64 || purego

package embed

// groupKernels: this build has no assembly kernels; the portable one is
// tested everywhere.
func groupKernels() []groupKernel { return nil }
