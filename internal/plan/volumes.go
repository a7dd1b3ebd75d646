package plan

import "cocopelia/internal/model"

// GemmVolumes returns, in closed form, the transfer-volume annotations the
// full-reuse gemm planner emits for k, without building the plan: each
// host-resident input crosses the link exactly once (tile raggedness
// cancels — the stored tiles partition the matrix), C is fetched only when
// beta contributes, and written back once when host-resident. Layers that
// only need a plan's traffic summary (the hybrid split planner) use this
// instead of materializing ops.
func GemmVolumes(k Key) Volumes {
	sz := k.Dtype.Size()
	mt := int64(ceil(k.M, k.T))
	nt := int64(ceil(k.N, k.T))
	kt := int64(ceil(k.K, k.T))
	v := Volumes{Subkernels: mt * nt * kt}
	if k.Locs[0] == model.OnHost {
		v.BytesH2D += int64(k.M) * int64(k.K) * sz
	}
	if k.Locs[1] == model.OnHost {
		v.BytesH2D += int64(k.K) * int64(k.N) * sz
	}
	if k.Locs[2] == model.OnHost {
		if scalar(k.Beta) != 0 {
			v.BytesH2D += int64(k.M) * int64(k.N) * sz
		}
		v.BytesD2H += int64(k.M) * int64(k.N) * sz
	}
	return v
}

// lowerTileElems is the element count of the lower-triangle tile cover of
// an n x n matrix tiled at T: sum over tiles (i >= j) of rows_i * rows_j.
// With S = sum rows = n and Q = sum rows^2, the triangle-with-diagonal sum
// is (S^2 + Q) / 2 (always even: the cross terms pair up).
func lowerTileElems(n, T int) int64 {
	nt := int64(ceil(n, T))
	last := int64(n) - (nt-1)*int64(T)
	q := (nt-1)*int64(T)*int64(T) + last*last
	return (int64(n)*int64(n) + q) / 2
}

// CholeskyVolumes returns, in closed form, the traffic annotations of the
// tiled Cholesky planner for k: each lower-triangle tile crosses the link
// exactly once in each direction when A is host-resident, and the schedule
// launches nt POTRF, nt(nt-1)/2 each of TRSM and SYRK, and C(nt,3) GEMM
// tile kernels.
func CholeskyVolumes(k Key) Volumes {
	nt := int64(ceil(k.N, k.T))
	v := Volumes{Subkernels: nt + nt*(nt-1) + nt*(nt-1)*(nt-2)/6}
	if k.Locs[0] == model.OnHost {
		bytes := lowerTileElems(k.N, k.T) * k.Dtype.Size()
		v.BytesH2D = bytes
		v.BytesD2H = bytes
	}
	return v
}

// LUVolumes returns the closed-form annotations of the tiled LU planner
// for k: the full matrix crosses once in each direction when
// host-resident, with nt GETRF, nt(nt-1) TRSM and sum_{r=1}^{nt-1} r^2
// GEMM tile kernels.
func LUVolumes(k Key) Volumes {
	nt := int64(ceil(k.N, k.T))
	v := Volumes{Subkernels: nt + nt*(nt-1) + (nt-1)*nt*(2*nt-1)/6}
	if k.Locs[0] == model.OnHost {
		bytes := int64(k.N) * int64(k.N) * k.Dtype.Size()
		v.BytesH2D = bytes
		v.BytesD2H = bytes
	}
	return v
}

// TrsmVolumes returns the closed-form annotations of the tiled triangular
// solve for k: A's lower tile cover crosses once, B crosses once in and
// once out, and each of B's nt column blocks takes mt diagonal solves plus
// mt(mt-1)/2 update GEMMs.
func TrsmVolumes(k Key) Volumes {
	mt := int64(ceil(k.M, k.T))
	nt := int64(ceil(k.N, k.T))
	v := Volumes{Subkernels: nt * (mt + mt*(mt-1)/2)}
	if k.Locs[0] == model.OnHost {
		v.BytesH2D += lowerTileElems(k.M, k.T) * k.Dtype.Size()
	}
	if k.Locs[1] == model.OnHost {
		bytes := int64(k.M) * int64(k.N) * k.Dtype.Size()
		v.BytesH2D += bytes
		v.BytesD2H = bytes
	}
	return v
}

// GemmNoReuseVolumes returns the closed-form annotations of the
// stateless-sub-kernel planner for k: every sub-kernel re-fetches its
// host-resident tiles (A crosses once per output column block, B once per
// output row block, C once per K step with a write-back each), independent
// of the staging depth.
func GemmNoReuseVolumes(k Key) Volumes {
	sz := k.Dtype.Size()
	mt := int64(ceil(k.M, k.T))
	nt := int64(ceil(k.N, k.T))
	kt := int64(ceil(k.K, k.T))
	v := Volumes{Subkernels: mt * nt * kt}
	if k.Locs[0] == model.OnHost {
		v.BytesH2D += nt * int64(k.M) * int64(k.K) * sz
	}
	if k.Locs[1] == model.OnHost {
		v.BytesH2D += mt * int64(k.K) * int64(k.N) * sz
	}
	if k.Locs[2] == model.OnHost {
		fetches := kt - 1
		if scalar(k.Beta) != 0 {
			fetches = kt
		}
		v.BytesH2D += fetches * int64(k.M) * int64(k.N) * sz
		v.BytesD2H += kt * int64(k.M) * int64(k.N) * sz
	}
	return v
}
