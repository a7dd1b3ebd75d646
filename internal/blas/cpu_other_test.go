//go:build !amd64

package blas

// hasAVX and hasAVX512 are the amd64 feature probes; no other architecture
// has the AVX kernels, so arch-neutral tests see false.
func hasAVX() bool { return false }

func hasAVX512() bool { return false }
