package model

// Loc describes where an operand initially resides; it determines the
// Table I get/set flags. Following the paper, operands residing on the GPU
// need no fetch, and results whose operand originated on the GPU stay
// there (no write-back).
type Loc int

const (
	// OnHost marks an operand initially resident in host memory.
	OnHost Loc = iota
	// OnDevice marks an operand already resident in GPU memory.
	OnDevice
)

// String returns "host" or "device".
func (l Loc) String() string {
	if l == OnDevice {
		return "device"
	}
	return "host"
}

// GemmParams builds the Table I parameter struct for
// C[MxN] = alpha·A[MxK]·B[KxN] + beta·C. Each operand's location sets its
// get flag; C additionally carries the set flag when it lives on the host
// (the result must return).
func GemmParams(routine string, dtypeSize int64, m, n, k int64, locA, locB, locC Loc) Params {
	return Params{
		Routine:   routine,
		Level:     3,
		DtypeSize: dtypeSize,
		D1:        m, D2: n, D3: k,
		Operands: []Operand{
			{Name: "A", Rows: m, Cols: k, Get: locA == OnHost},
			{Name: "B", Rows: k, Cols: n, Get: locB == OnHost},
			{Name: "C", Rows: m, Cols: n, Get: locC == OnHost, Set: locC == OnHost},
		},
	}
}

// AxpyParams builds the Table I parameter struct for y += alpha·x over
// length-n vectors.
func AxpyParams(routine string, dtypeSize int64, n int64, locX, locY Loc) Params {
	return Params{
		Routine:   routine,
		Level:     1,
		DtypeSize: dtypeSize,
		D1:        n, D2: 1, D3: 1,
		Operands: []Operand{
			{Name: "X", Rows: n, Cols: 1, Get: locX == OnHost},
			{Name: "Y", Rows: n, Cols: 1, Get: locY == OnHost, Set: locY == OnHost},
		},
	}
}

// GemvParams builds the Table I parameter struct for
// y[M] = alpha·A[MxN]·x[N] + beta·y.
func GemvParams(routine string, dtypeSize int64, m, n int64, locA, locX, locY Loc) Params {
	return Params{
		Routine:   routine,
		Level:     2,
		DtypeSize: dtypeSize,
		D1:        m, D2: n, D3: 1,
		Operands: []Operand{
			{Name: "A", Rows: m, Cols: n, Get: locA == OnHost},
			{Name: "X", Rows: n, Cols: 1, Get: locX == OnHost},
			{Name: "Y", Rows: m, Cols: 1, Get: locY == OnHost, Set: locY == OnHost},
		},
	}
}

// LocCombos enumerates all host/device location assignments for n operands
// except the all-on-device one (which needs no overlap, and the paper
// excludes it). Combinations are ordered with all-on-host first.
func LocCombos(n int) [][]Loc {
	if n <= 0 {
		return nil
	}
	total := 1 << n
	var out [][]Loc
	for mask := 0; mask < total-1; mask++ {
		combo := make([]Loc, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				combo[i] = OnDevice
			}
		}
		out = append(out, combo)
	}
	return out
}
