package cudart

// KernelName indexes the kernel-name table, so an op carries its kernel's
// name in two bytes: the kernels plan replays launch.
type KernelName uint16

// The kernel names; the zero value, noName, names nothing.
const (
	noName KernelName = iota
	NameDgemm
	NameSgemm
	NameGemv
	NameDaxpy
	NameDispatch
	NameDpotrf
	NameSpotrf
	NameDgetrf
	NameSgetrf
	NameDtrsm
	NameStrsm
	NameDsyrk
	NameSsyrk
	numKernelNames
)

var kernelNames = [numKernelNames]string{
	noName:       "",
	NameDgemm:    "dgemm",
	NameSgemm:    "sgemm",
	NameGemv:     "gemv",
	NameDaxpy:    "daxpy",
	NameDispatch: "dispatch",
	NameDpotrf:   "dpotrf",
	NameSpotrf:   "spotrf",
	NameDgetrf:   "dgetrf",
	NameSgetrf:   "sgetrf",
	NameDtrsm:    "dtrsm",
	NameStrsm:    "strsm",
	NameDsyrk:    "dsyrk",
	NameSsyrk:    "ssyrk",
}
