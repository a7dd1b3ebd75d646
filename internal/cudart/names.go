package cudart

import "fmt"

// KernelName indexes the kernel-name table, so an op carries its kernel's
// name in two bytes. The names below numBuiltinNames are the kernels this
// package's launch wrappers and the plan replay tapes launch, the same for
// every runtime; KernelAsync interns any other name in its runtime, up to
// maxKernelNames in all.
type KernelName uint16

// maxKernelNames bounds the kernel-name table of one runtime.
const maxKernelNames = 1 << 16

// The builtin kernel names; the zero value, noName, names nothing.
const (
	noName KernelName = iota
	NameDgemm
	NameSgemm
	NameGemv
	NameDaxpy
	NameSaxpy
	NameDispatch
	NameDpotrf
	NameSpotrf
	NameDgetrf
	NameSgetrf
	NameDtrsm
	NameStrsm
	NameDsyrk
	NameSsyrk
	numBuiltinNames
)

var builtinNames = [numBuiltinNames]string{
	noName:       "",
	NameDgemm:    "dgemm",
	NameSgemm:    "sgemm",
	NameGemv:     "gemv",
	NameDaxpy:    "daxpy",
	NameSaxpy:    "saxpy",
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

// kernelName returns the string a kernel-name index stands for.
func (rt *Runtime) kernelName(k KernelName) string {
	if k < numBuiltinNames {
		return builtinNames[k]
	}
	return rt.extraNames[k-numBuiltinNames]
}

// intern returns the index of name, adding it to the runtime's extra names
// when it is not a builtin. It fails when the table is full.
func (rt *Runtime) intern(name string) (KernelName, error) {
	for i, n := range builtinNames {
		if n == name {
			return KernelName(i), nil
		}
	}
	if k, ok := rt.extraIndex[name]; ok {
		return k, nil
	}
	if int(numBuiltinNames)+len(rt.extraNames) == maxKernelNames {
		return 0, fmt.Errorf("cudart: kernel %q: more than %d distinct kernel names", name, maxKernelNames)
	}
	if rt.extraIndex == nil {
		rt.extraIndex = map[string]KernelName{}
	}
	k := numBuiltinNames + KernelName(len(rt.extraNames))
	rt.extraNames = append(rt.extraNames, name)
	rt.extraIndex[name] = k
	return k, nil
}
