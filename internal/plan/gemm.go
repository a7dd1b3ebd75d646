package plan

import (
	"cocopelia/internal/blas"
	"cocopelia/internal/model"
)

// MaxNoReuseSlots bounds the in-flight staging depth of the no-reuse
// schedule; the effective depth shrinks for very large tiles so the bounded
// staging always fits device memory.
const MaxNoReuseSlots = 8

// BlasxDispatchS is the duration of the tile-map management op the BLASX
// runtime dispatches before every sub-kernel (the "gemm-blasx" schedule).
const BlasxDispatchS = 4e-6

// buildGemm emits the full-reuse tiled gemm schedule (the paper's Section
// IV-C scheduler) as a thin client of the Graph builder: each input tile is
// fetched exactly once, output tiles accumulate over K on the compute
// stream and are written back once. Op emission order matches the
// imperative scheduler's stream-call order exactly, so replay is
// event-identical.
//
// The "gemm-blasx" routine is BLASX's runtime over the same schedule: a
// dispatch op of BlasxDispatchS before every sub-kernel, and a compute
// stream that waits for each output tile's write-back before the next
// kernel, because BLASX's tile manager confirms an output tile's host copy
// before recycling its cache slot.
func buildGemm(g *Graph) {
	key := &g.p.Key
	T := key.T
	mt := ceil(key.M, T)
	nt := ceil(key.N, T)
	kt := ceil(key.K, T)
	keyBeta, blasx := scalar(key.Beta), key.Routine == "gemm-blasx"

	// Pre-size the arenas from the known schedule shape.
	hostTiles := func(l model.Loc, n int) int {
		if l == model.OnHost {
			return n
		}
		return 0
	}
	aTiles := hostTiles(key.Locs[0], mt*kt)
	bTiles := hostTiles(key.Locs[1], kt*nt)
	cTiles := hostTiles(key.Locs[2], mt*nt)
	kernels := mt * nt * kt
	kernelOps := kernels
	if blasx {
		kernelOps *= 2
	}
	cFetches := 0
	if keyBeta != 0 {
		cFetches = cTiles
	}
	slotsCap := aTiles + bTiles + cTiles
	g.Grow(slotsCap, slotsCap+aTiles+bTiles+cFetches+kernelOps+cTiles, 4*kernels+cTiles)

	// Tile grids are keyed by STORED coordinates, following the transposes.
	stored := func(trans byte, i, j int) (int, int) {
		if trans == blas.Trans {
			return j, i
		}
		return i, j
	}
	ar, ac := stored(key.TransA, key.M, key.K)
	br, bc := stored(key.TransB, key.K, key.N)
	aGrid, bGrid, cGrid := g.grid(0, ar, ac), g.grid(1, br, bc), g.grid(2, key.M, key.N)

	fetchC := keyBeta != 0 // C contributes only when beta != 0
	pendingWB := NoOp      // blocking write-back awaiting the next kernel
	lastComp := NoOp
	var depBuf []OpID // reused wait list, in registration order

	for tj := 0; tj < nt; tj++ {
		for ti := 0; ti < mt; ti++ {
			rows := min(T, key.M-ti*T)
			cols := min(T, key.N-tj*T)
			cTile := g.resident(&cGrid, ti, tj, fetchC)
			for tk := 0; tk < kt; tk++ {
				inner := min(T, key.K-tk*T)
				ai, aj := stored(key.TransA, ti, tk)
				aTile := g.resident(&aGrid, ai, aj, true)
				bi, bj := stored(key.TransB, tk, tj)
				bTile := g.resident(&bGrid, bi, bj, true)
				// Compute-stream waits, in registration order: a pending
				// blocking write-back attaches first, then the input tiles,
				// then (first accumulation only) the output tile.
				depBuf = append(depBuf[:0], pendingWB, aTile.ready, bTile.ready)
				pendingWB = NoOp
				beta := 1.0
				if tk == 0 {
					depBuf = append(depBuf, cTile.ready)
					beta = keyBeta
					if !fetchC {
						beta = 0
					}
				}
				if blasx {
					// The dispatch kernel drains the pending waits; the gemm
					// follows it in stream order with no explicit deps.
					g.Dispatch(depBuf...)
					depBuf = depBuf[:0]
				}
				lastComp = g.Gemm(key.TransA, key.TransB,
					int32(rows), int32(cols), int32(inner),
					AlphaPlan, betaSel(beta),
					aTile.ref, bTile.ref, cTile.ref, depBuf...)
			}
			if wb := g.writeback(&cGrid, ti, tj, lastComp); blasx {
				pendingWB = wb
			}
		}
	}
}

// buildGemmNoReuse emits the stateless-sub-kernel schedule: every
// sub-kernel fetches fresh tiles of its host-resident operands through a
// bounded set of staging slot groups and writes its C tile back
// immediately. freeBytes is the device memory available for staging at
// plan time; it sizes the slot depth exactly as the imperative scheduler
// did, so the plan embeds the staging depth.
func buildGemmNoReuse(g *Graph, freeBytes int64) {
	key := &g.p.Key
	T := key.T
	mt := ceil(key.M, T)
	nt := ceil(key.N, T)
	kt := ceil(key.K, T)
	dt := key.Dtype
	keyBeta := scalar(key.Beta)

	tileA := int64(min(T, key.M)) * int64(min(T, key.K))
	tileB := int64(min(T, key.K)) * int64(min(T, key.N))
	tileC := int64(min(T, key.M)) * int64(min(T, key.N))
	var groupBytes int64
	if key.Locs[0] == model.OnHost {
		groupBytes += tileA * dt.Size()
	}
	if key.Locs[1] == model.OnHost {
		groupBytes += tileB * dt.Size()
	}
	if key.Locs[2] == model.OnHost {
		groupBytes += tileC * dt.Size()
	}
	nSlots := MaxNoReuseSlots
	if groupBytes > 0 {
		if byMem := int(freeBytes / (groupBytes + groupBytes/8)); byMem < nSlots {
			nSlots = byMem
		}
		if nSlots < 2 {
			nSlots = 2
		}
	}

	// Pre-size the arenas (see buildGemm): sk sub-kernels each emit up to
	// three fetches, the kernel and a write-back, with a handful of
	// dependency edges apiece.
	sk := mt * nt * kt
	hostOperands, fetchesPerSk := 0, 0
	if key.Locs[0] == model.OnHost {
		hostOperands, fetchesPerSk = hostOperands+1, fetchesPerSk+1
	}
	if key.Locs[1] == model.OnHost {
		hostOperands, fetchesPerSk = hostOperands+1, fetchesPerSk+1
	}
	cFetches, wbs := 0, 0
	if key.Locs[2] == model.OnHost {
		hostOperands++
		wbs = sk
		cFetches = sk
		if keyBeta == 0 {
			cFetches -= mt * nt
		}
	}
	allocs := nSlots * hostOperands
	g.Grow(allocs, allocs+fetchesPerSk*sk+cFetches+sk+wbs, 6*sk)

	type group struct {
		a, b, c                   int32
		lastKernel, lastWriteback OpID
	}
	groups := make([]group, nSlots)
	for i := range groups {
		gr := &groups[i]
		*gr = group{a: -1, b: -1, c: -1, lastKernel: NoOp, lastWriteback: NoOp}
		if key.Locs[0] == model.OnHost {
			gr.a = g.Slot(dt, tileA)
			g.Alloc(gr.a)
		}
		if key.Locs[1] == model.OnHost {
			gr.b = g.Slot(dt, tileB)
			g.Alloc(gr.b)
		}
		if key.Locs[2] == model.OnHost {
			gr.c = g.Slot(dt, tileC)
			g.Alloc(gr.c)
		}
	}

	writebackOf := make([]OpID, mt*nt)
	for i := range writebackOf {
		writebackOf[i] = NoOp
	}

	// pendingH2D carries h2d-stream waits (slot-reuse hazards) to the next
	// fetch op, exactly as Stream.WaitEvent accumulates waits until the
	// next enqueue on the stream.
	var pendingH2D []OpID
	lastH2D := NoOp

	idx := 0
	for tk := 0; tk < kt; tk++ {
		inner := min(T, key.K-tk*T)
		for tj := 0; tj < nt; tj++ {
			for ti := 0; ti < mt; ti++ {
				rows := min(T, key.M-ti*T)
				cols := min(T, key.N-tj*T)
				gr := &groups[idx%nSlots]
				idx++
				if gr.lastKernel >= 0 {
					pendingH2D = append(pendingH2D, gr.lastKernel)
				}
				if gr.lastWriteback >= 0 {
					pendingH2D = append(pendingH2D, gr.lastWriteback)
				}

				fetched := false
				emitFetch := func(arg int8, slot, row, col, r, cl int) {
					lastH2D = g.Fetch(arg, int32(row), int32(col),
						int32(r), int32(cl), int32(slot), pendingH2D...)
					pendingH2D = pendingH2D[:0]
					fetched = true
				}

				aRef := argRef(0, int32(ti*T), int32(tk*T))
				if key.Locs[0] == model.OnHost {
					emitFetch(0, int(gr.a), ti*T, tk*T, rows, inner)
					aRef = slotRef(gr.a, int32(rows))
				}
				bRef := argRef(1, int32(tk*T), int32(tj*T))
				if key.Locs[1] == model.OnHost {
					emitFetch(1, int(gr.b), tk*T, tj*T, inner, cols)
					bRef = slotRef(gr.b, int32(inner))
				}
				beta := 1.0
				cRef := argRef(2, int32(ti*T), int32(tj*T))
				if key.Locs[2] == model.OnHost {
					cRef = slotRef(gr.c, int32(rows))
					fetch := tk > 0 || keyBeta != 0
					if fetch {
						// The previous write-back of this C tile must land in
						// host memory before the re-read: it joins the
						// pending waits after the slot-reuse hazards.
						if wb := writebackOf[ti*nt+tj]; wb >= 0 {
							pendingH2D = append(pendingH2D, wb)
						}
						emitFetch(2, int(gr.c), ti*T, tj*T, rows, cols)
						if tk == 0 {
							beta = keyBeta
						}
					} else {
						beta = 0
					}
				} else if tk == 0 {
					beta = keyBeta
				}

				// The kernel waits on the h2d stream's tail (everything
				// fetched so far), mirroring comp.WaitEvent(h2d.Record()).
				// A fetch in this step already waited for the group's
				// previous write-back; without one (A and B on the device,
				// C not read), the kernel itself must wait for it before
				// overwriting the C slot that write-back reads.
				reuse := NoOp
				if key.Locs[2] == model.OnHost && !fetched {
					reuse = gr.lastWriteback
				}
				kid := g.Gemm(blas.NoTrans, blas.NoTrans,
					int32(rows), int32(cols), int32(inner),
					AlphaPlan, betaSel(beta), aRef, bRef, cRef, lastH2D, reuse)
				gr.lastKernel = kid

				if key.Locs[2] == model.OnHost {
					wb := g.Writeback(gr.c, 2, int32(ti*T), int32(tj*T),
						int32(rows), int32(cols), kid)
					gr.lastWriteback = wb
					writebackOf[ti*nt+tj] = wb
				}
			}
		}
	}
}

// XtStreams is the number of worker streams of the cuBLASXt schedule
// (cuBLASXt runs a small fixed pool of streams per GPU).
const XtStreams = 4

// buildGemmXt emits the gemm schedule of NVIDIA's cuBLASXt, the
// state-of-practice offload library the paper evaluates against:
//
//   - square tiling with the caller's tile size (cuBLASXt exposes
//     cublasXtSetBlockDim; it does not select the tile size itself);
//   - output tiles dealt round-robin to XtStreams worker streams, each
//     pipelining fetch, compute and write-back of its tiles through its own
//     staging slots, so overlap comes only from workers being in different
//     pipeline phases;
//   - no reuse across sub-kernels: input tiles are fetched again for every
//     sub-kernel, so A crosses the link about N/T times and B about M/T
//     times, the traffic BLASX and CoCoPeLia avoid;
//   - in-stream ordering only: no op carries a dependency edge.
//
// Device-resident operands are used in place. freeBytes is the device
// memory free at plan time: when the workers' full-tile staging does not
// fit, fewer workers take part (at least one), as cuBLASXt bounds its
// workspace, so the plan embeds its worker count.
func buildGemmXt(g *Graph, freeBytes int64) {
	key := &g.p.Key
	T := key.T
	mt := ceil(key.M, T)
	nt := ceil(key.N, T)
	kt := ceil(key.K, T)
	dt := key.Dtype
	keyBeta := scalar(key.Beta)

	hostA, hostB, hostC := key.Locs[0] == model.OnHost, key.Locs[1] == model.OnHost, key.Locs[2] == model.OnHost
	tileA := int64(min(T, key.M)) * int64(min(T, key.K))
	tileB := int64(min(T, key.K)) * int64(min(T, key.N))
	tileC := int64(min(T, key.M)) * int64(min(T, key.N))
	fetchC := keyBeta != 0 // C contributes only when beta != 0
	sk := mt * nt * kt
	// A worker stages one full tile of each host-resident operand.
	var groupBytes int64
	slots, ops := 0, sk
	if hostA {
		groupBytes += tileA * dt.Size()
		slots, ops = slots+1, ops+sk
	}
	if hostB {
		groupBytes += tileB * dt.Size()
		slots, ops = slots+1, ops+sk
	}
	if hostC {
		groupBytes += tileC * dt.Size()
		slots, ops = slots+1, ops+mt*nt // write-backs
		if fetchC {
			ops += mt * nt
		}
	}
	workers := XtStreams
	if groupBytes > 0 {
		if byMem := int(freeBytes / (groupBytes + groupBytes/8)); byMem < workers {
			workers = max(byMem, 1)
		}
	}
	g.Grow(workers*slots, workers*slots+ops, 0)

	// Each worker's staging slots, allocated worker by worker before any
	// transfer, sized to a full tile so no slot is reallocated mid-run.
	type worker struct{ a, b, c int32 }
	ws := make([]worker, workers)
	for i := range ws {
		w := &ws[i]
		if hostA {
			w.a = g.Slot(dt, tileA)
			g.Alloc(w.a)
		}
		if hostB {
			w.b = g.Slot(dt, tileB)
			g.Alloc(w.b)
		}
		if hostC {
			w.c = g.Slot(dt, tileC)
			g.Alloc(w.c)
		}
	}

	tile := 0
	for tj := 0; tj < nt; tj++ {
		for ti := 0; ti < mt; ti++ {
			wi := tile % workers
			w := &ws[wi]
			g.Pin(uint8(wi))
			tile++
			rows := min(T, key.M-ti*T)
			cols := min(T, key.N-tj*T)

			cRef := argRef(2, int32(ti*T), int32(tj*T))
			if hostC {
				if fetchC {
					g.Fetch(2, int32(ti*T), int32(tj*T), int32(rows), int32(cols), w.c)
				}
				cRef = slotRef(w.c, int32(rows))
			}
			for tk := 0; tk < kt; tk++ {
				inner := min(T, key.K-tk*T)
				aRef := argRef(0, int32(ti*T), int32(tk*T))
				if hostA {
					g.Fetch(0, int32(ti*T), int32(tk*T), int32(rows), int32(inner), w.a)
					aRef = slotRef(w.a, int32(rows))
				}
				bRef := argRef(1, int32(tk*T), int32(tj*T))
				if hostB {
					g.Fetch(1, int32(tk*T), int32(tj*T), int32(inner), int32(cols), w.b)
					bRef = slotRef(w.b, int32(inner))
				}
				beta := 1.0
				if tk == 0 {
					beta = keyBeta
					if hostC && !fetchC {
						beta = 0
					}
				}
				g.Gemm(blas.NoTrans, blas.NoTrans, int32(rows), int32(cols), int32(inner),
					AlphaPlan, betaSel(beta), aRef, bRef, cRef)
			}
			if hostC {
				g.Writeback(w.c, 2, int32(ti*T), int32(tj*T), int32(rows), int32(cols))
			}
		}
	}
}

func ceil(a, b int) int { return (a + b - 1) / b }
