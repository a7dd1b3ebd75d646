package model

import (
	"errors"
	"math"

	"cocopelia/internal/machine"
)

// This file implements the rest of the van Werkhoven et al. [11] model
// family that the paper's CSO comparator comes from, plus explicitly
// labelled ablation variants of the CoCoPeLia models. The extra Werkhoven
// models ground the related-work comparison (serial offload, 2-way
// overlap, 3-way with a single copy engine), and the ablations quantify
// the value of individual CoCoPeLia modeling decisions.

// The extended comparator and ablation model kinds.
const (
	// WerkSerial is the no-overlap offload model: input, kernel and
	// output phases execute back to back.
	WerkSerial Kind = "Werk-serial"
	// Werk2Way overlaps h2d transfers with kernel execution but drains
	// the output serially (the single-copy-engine, input-overlap-only
	// scenario of [11]).
	Werk2Way Kind = "Werk-2way"
	// Werk1Engine is 3-way pipelining with a single copy engine: input
	// and output transfers share one queue and never overlap each other.
	Werk1Engine Kind = "Werk-1engine"
	// AblDRInteger is the DR model with integer (ceiling) tile counts
	// instead of fractional volume-proportional counts — the ablation
	// showing why ragged edge tiles must be charged by volume.
	AblDRInteger Kind = "DR-intTiles"
	// AblBTSUnidir is the BTS model with the bidirectional slowdown
	// forced to 1 — the ablation showing why modeling h2d/d2h contention
	// matters (it degenerates to the DataLoc model's dominant term
	// computed with Eq. 3 disabled).
	AblBTSUnidir Kind = "BTS-noBid"
)

// fullPhaseTimes returns the full-problem input/output transfer times and
// the full kernel estimate used by the Werkhoven family.
func fullPhaseTimes(p *Params, sm SubModels) (tIn, tExec, tOut float64) {
	var inBytes, outBytes int64
	for _, o := range p.Operands {
		if o.Get {
			inBytes += o.Bytes(p.DtypeSize)
		}
		if o.Set {
			outBytes += o.Bytes(p.DtypeSize)
		}
	}
	if inBytes > 0 {
		tIn = sm.TransferTime(machine.H2D, inBytes)
	}
	if outBytes > 0 {
		tOut = sm.TransferTime(machine.D2H, outBytes)
	}
	return tIn, sm.KernelFullTime(), tOut
}

// predictWerkSerial is the no-overlap baseline of [11].
func predictWerkSerial(p *Params, sm SubModels) (float64, error) {
	tIn, tExec, tOut := fullPhaseTimes(p, sm)
	return tIn + tExec + tOut, nil
}

// predictWerk2Way pipelines input chunks with kernel chunks over k pieces;
// the output phase runs after the pipeline drains.
func predictWerk2Way(p *Params, sm SubModels, T int) (float64, error) {
	k := p.SubkernelsF(T)
	tIn, tExec, tOut := fullPhaseTimes(p, sm)
	dominant := math.Max(tIn, tExec)
	return dominant*math.Max(k-1, 0)/k + (tIn+tExec)/k + tOut, nil
}

// predictWerk1Engine pipelines all three phases but input and output
// transfers serialize on one copy engine.
func predictWerk1Engine(p *Params, sm SubModels, T int) (float64, error) {
	k := p.SubkernelsF(T)
	tIn, tExec, tOut := fullPhaseTimes(p, sm)
	dominant := math.Max(tIn+tOut, tExec)
	return dominant*math.Max(k-1, 0)/k + (tIn+tExec+tOut)/k, nil
}

// predictDRIntegerTiles is predictDR with ceiling tile counts.
func predictDRIntegerTiles(p *Params, sm SubModels, T int) (float64, error) {
	tGPU, err := sm.KernelTileTime(T)
	if err != nil {
		return 0, err
	}
	k := float64(p.Subkernels(T))
	var kIn, kOut float64
	var tInFirst, tOutTail float64
	var fetchTile float64
	for _, o := range p.Operands {
		h2d := sm.TransferTime(machine.H2D, o.TileBytes(T, p.DtypeSize))
		if o.Get {
			kIn += math.Max(float64(o.Tiles(T)-1), 0)
			tInFirst += h2d
			if h2d > fetchTile {
				fetchTile = h2d
			}
		}
		if o.Set {
			kOut += float64(o.Tiles(T))
			tOutTail += sm.TransferTime(machine.D2H, o.TileBytes(T, p.DtypeSize))
		}
	}
	fetchBid := fetchTile
	if kOut > 0 && kIn > 0 {
		share := math.Min(kOut/kIn, 1)
		fetchBid *= 1 + (sm.BidSlowdown(machine.H2D)-1)*share
	}
	transferPaced := math.Min(kIn, math.Max(k-1, 0))
	t := tInFirst +
		math.Max(fetchBid, tGPU)*transferPaced +
		tGPU*(math.Max(k-1, 0)-transferPaced) +
		tGPU + tOutTail
	if kIn > transferPaced {
		t += fetchBid * (kIn - transferPaced)
	}
	return t, nil
}

// predictBTSUnidir is predictBTS with the slowdown factors forced to 1.
func predictBTSUnidir(p *Params, sm SubModels, T int) (float64, error) {
	tGPU, err := sm.KernelTileTime(T)
	if err != nil {
		return 0, err
	}
	k := p.SubkernelsF(T)
	tIn, tOut, _, _ := tileTransferTimes(p, sm, T)
	tOver := overlapTime(tIn, tOut, 1, 1)
	return math.Max(tGPU, tOver)*math.Max(k-1, 0) + tIn + tGPU + tOut, nil
}

// PredictExtended evaluates the extended comparator/ablation models; it
// falls back to Predict for the primary kinds so callers can treat the
// whole family uniformly.
func PredictExtended(kind Kind, p *Params, sm SubModels, T int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if T <= 0 {
		return 0, errors.New("model: non-positive tiling size")
	}
	switch kind {
	case WerkSerial:
		return predictWerkSerial(p, sm)
	case Werk2Way:
		return predictWerk2Way(p, sm, T)
	case Werk1Engine:
		return predictWerk1Engine(p, sm, T)
	case AblDRInteger:
		return predictDRIntegerTiles(p, sm, T)
	case AblBTSUnidir:
		return predictBTSUnidir(p, sm, T)
	}
	return Predict(kind, p, sm, T)
}
