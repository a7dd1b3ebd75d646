//go:build amd64

package blas

// amd64 CPU feature probes (CPUID/XGETBV assembly in cpu_amd64.s). The
// OS check matters as much as the CPU bit: YMM state must be enabled in
// XCR0 or any VEX-encoded instruction faults.

func cpuidAsm(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// hasAVX reports CPU AVX support with OS-enabled YMM state (OSXSAVE set
// and XCR0 covering the XMM|YMM bits).
func hasAVX() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	return xcr0&0x6 == 0x6
}

// hasAVX512 reports AVX-512F support (leaf 7 EBX bit 16) with OS-enabled
// ZMM state (XCR0 must cover the opmask and both upper-ZMM state
// components on top of XMM|YMM, or any EVEX-encoded instruction faults).
func hasAVX512() bool {
	if !hasAVX() {
		return false
	}
	if maxID, _, _, _ := cpuidAsm(0, 0); maxID < 7 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	const avx512f = 1 << 16
	if ebx&avx512f == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	return xcr0&0xe6 == 0xe6
}
