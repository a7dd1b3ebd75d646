//go:build !amd64

package blas

// hasAVX512 is the amd64 feature probe; no other architecture has the
// AVX-512 kernels, so arch-neutral tests see false.
func hasAVX512() bool { return false }
