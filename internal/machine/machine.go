// Package machine describes the simulated testbeds. Each Testbed carries
// the ground-truth hardware parameters of the discrete-event GPU simulator:
// the PCIe link (latency, bandwidth and bidirectional slowdown per
// direction, after the paper's Table II), and the GPU compute/memory
// characteristics (after the paper's Table III).
//
// These are the parameters the machine *has*; the CoCoPeLia deployment
// phase (internal/microbench) re-discovers them empirically through
// micro-benchmarks, exactly as the paper does on real hardware, and it is
// those fitted values — not the ground truth — that feed the prediction
// models.
package machine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// LinkDir identifies a transfer direction across the host-device link. It
// is a byte so hot per-operation structs (cudart ops) can pack it next to
// their other small scalars.
type LinkDir uint8

const (
	// H2D is a host-to-device transfer.
	H2D LinkDir = iota
	// D2H is a device-to-host transfer.
	D2H
)

// String returns the conventional short name of the direction.
func (d LinkDir) String() string {
	switch d {
	case H2D:
		return "h2d"
	case D2H:
		return "d2h"
	}
	return fmt.Sprintf("LinkDir(%d)", int(d))
}

// LinkParams is the ground truth for one transfer direction.
type LinkParams struct {
	// LatencyS is the fixed per-transfer setup latency t_l in seconds.
	LatencyS float64 `json:"latency_s"`
	// BandwidthBps is the unidirectional bandwidth 1/t_b in bytes/second.
	BandwidthBps float64 `json:"bandwidth_Bps"`
	// BidSlowdown is the factor (>= 1) by which the transfer slows down
	// while the opposite direction is simultaneously active.
	BidSlowdown float64 `json:"bid_slowdown"`
}

// TimeFor returns the unidirectional (uncontended) transfer time for the
// given payload in bytes.
func (p LinkParams) TimeFor(bytes int64) float64 {
	return p.LatencyS + float64(bytes)/p.BandwidthBps
}

// GPUSpec is the ground truth for the simulated device.
type GPUSpec struct {
	Name string `json:"name"`
	// PeakFlops64 and PeakFlops32 are the double- and single-precision
	// peak throughputs in FLOP/s.
	PeakFlops64 float64 `json:"peak_flops_fp64"`
	PeakFlops32 float64 `json:"peak_flops_fp32"`
	// MemBandwidthBps is the device-memory bandwidth in bytes/second,
	// used by the roofline for bandwidth-bound (e.g. level-1) kernels.
	MemBandwidthBps float64 `json:"mem_bandwidth_Bps"`
	// MemBytes is the device memory capacity.
	MemBytes int64 `json:"mem_bytes"`
	// KernelLaunchS is the fixed kernel-launch overhead in seconds.
	KernelLaunchS float64 `json:"kernel_launch_s"`
	// MaxEff64/MaxEff32 are the asymptotic fractions of peak that large
	// gemm kernels achieve (cuBLAS never quite reaches peak).
	MaxEff64 float64 `json:"max_eff_fp64"`
	MaxEff32 float64 `json:"max_eff_fp32"`
	// EffHalfDim is the problem dimension (cube-root of M*N*K) at which
	// gemm efficiency reaches half of its asymptote; it controls how fast
	// small tiles lose efficiency (GPU underutilization).
	EffHalfDim float64 `json:"eff_half_dim"`
	// EffSharpness is the exponent of the saturation curve.
	EffSharpness float64 `json:"eff_sharpness"`
	// SpikeAmp is the amplitude of deterministic per-size performance
	// perturbations ("spikes"); the paper observes these on the V100 and
	// not on the K40.
	SpikeAmp float64 `json:"spike_amp"`
	// NoiseSigma is the relative standard deviation of per-invocation
	// multiplicative timing noise (kernels and transfers alike).
	NoiseSigma float64 `json:"noise_sigma"`
}

// HostSpec is the ground truth for the host CPU's compute capability,
// used by the host-assisted execution extension. Host-resident data needs
// no transfers, so only throughput matters.
type HostSpec struct {
	// PeakFlops64/PeakFlops32 are the CPU's peak throughputs in FLOP/s.
	PeakFlops64 float64 `json:"peak_flops_fp64"`
	PeakFlops32 float64 `json:"peak_flops_fp32"`
	// GemmEff is the fraction of peak a tuned CPU gemm achieves.
	GemmEff float64 `json:"gemm_eff"`
}

// GemmTime returns the host execution time of an MxNxK gemm.
func (h HostSpec) GemmTime(f64 bool, m, n, k int) float64 {
	peak := h.PeakFlops64
	if !f64 {
		peak = h.PeakFlops32
	}
	if peak <= 0 || m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	return 2 * float64(m) * float64(n) * float64(k) / (peak * h.GemmEff)
}

// Testbed is one complete simulated machine.
type Testbed struct {
	Name string     `json:"name"`
	CPU  string     `json:"cpu"`
	PCIe string     `json:"pcie"`
	H2D  LinkParams `json:"h2d"`
	D2H  LinkParams `json:"d2h"`
	GPU  GPUSpec    `json:"gpu"`
	Host HostSpec   `json:"host"`
}

// Link returns the link parameters for the given direction.
func (t *Testbed) Link(dir LinkDir) LinkParams {
	if dir == H2D {
		return t.H2D
	}
	return t.D2H
}

// Validate checks that all parameters are physically meaningful.
func (t *Testbed) Validate() error {
	if t.Name == "" {
		return errors.New("machine: testbed has no name")
	}
	for _, l := range []struct {
		n string
		p LinkParams
	}{{"h2d", t.H2D}, {"d2h", t.D2H}} {
		if l.p.BandwidthBps <= 0 {
			return fmt.Errorf("machine: %s: %s bandwidth must be positive", t.Name, l.n)
		}
		if l.p.LatencyS < 0 {
			return fmt.Errorf("machine: %s: %s latency must be non-negative", t.Name, l.n)
		}
		if l.p.BidSlowdown < 1 {
			return fmt.Errorf("machine: %s: %s bidirectional slowdown must be >= 1", t.Name, l.n)
		}
	}
	g := t.GPU
	switch {
	case g.PeakFlops64 <= 0 || g.PeakFlops32 <= 0:
		return fmt.Errorf("machine: %s: peak FLOP/s must be positive", t.Name)
	case g.MemBandwidthBps <= 0:
		return fmt.Errorf("machine: %s: memory bandwidth must be positive", t.Name)
	case g.MemBytes <= 0:
		return fmt.Errorf("machine: %s: memory capacity must be positive", t.Name)
	case g.KernelLaunchS < 0:
		return fmt.Errorf("machine: %s: launch overhead must be non-negative", t.Name)
	case g.MaxEff64 <= 0 || g.MaxEff64 > 1 || g.MaxEff32 <= 0 || g.MaxEff32 > 1:
		return fmt.Errorf("machine: %s: max efficiency must be in (0, 1]", t.Name)
	case g.EffHalfDim <= 0 || g.EffSharpness <= 0:
		return fmt.Errorf("machine: %s: efficiency curve parameters must be positive", t.Name)
	case g.SpikeAmp < 0 || g.SpikeAmp >= 1 || g.NoiseSigma < 0 || g.NoiseSigma >= 1:
		return fmt.Errorf("machine: %s: spike/noise amplitudes must be in [0, 1)", t.Name)
	}
	h := t.Host
	if h.PeakFlops64 < 0 || h.PeakFlops32 < 0 || h.GemmEff < 0 || h.GemmEff > 1 {
		return fmt.Errorf("machine: %s: host spec out of range", t.Name)
	}
	return nil
}

const (
	gb = 1e9
	// GiB is the device-memory unit used in the testbed definitions.
	GiB = int64(1) << 30
)

// TestbedI returns the simulated equivalent of the paper's Testbed I:
// an NVIDIA Tesla K40 behind PCIe Gen2 x8. Link parameters follow Table II
// (≈3.15/3.29 GB/s with mild bidirectional slowdown), compute parameters
// follow the K40 datasheet values referenced in Table III.
func TestbedI() *Testbed {
	return &Testbed{
		Name: "Testbed I",
		CPU:  "Intel Core i7-4820K (simulated host)",
		PCIe: "Gen2 x8",
		H2D:  LinkParams{LatencyS: 12e-6, BandwidthBps: 3.15 * gb, BidSlowdown: 1.03},
		D2H:  LinkParams{LatencyS: 11e-6, BandwidthBps: 3.29 * gb, BidSlowdown: 1.16},
		GPU: GPUSpec{
			Name:            "NVIDIA Tesla K40 (simulated)",
			PeakFlops64:     1.43e12,
			PeakFlops32:     4.29e12,
			MemBandwidthBps: 288 * gb,
			MemBytes:        12 * GiB,
			KernelLaunchS:   9e-6,
			MaxEff64:        0.92,
			MaxEff32:        0.88,
			EffHalfDim:      300,
			EffSharpness:    1.8,
			SpikeAmp:        0.012,
			NoiseSigma:      0.012,
		},
		Host: HostSpec{
			PeakFlops64: 118e9, // 4 cores x AVX FMA x 3.7 GHz
			PeakFlops32: 236e9,
			GemmEff:     0.85,
		},
	}
}

// TestbedII returns the simulated equivalent of the paper's Testbed II:
// an NVIDIA Tesla V100 behind PCIe Gen3 x16. Table II reports ≈12.18/12.98
// GB/s with pronounced bidirectional slowdowns (1.27/1.41); the V100 also
// shows per-size performance spikes that the K40 does not.
func TestbedII() *Testbed {
	return &Testbed{
		Name: "Testbed II",
		CPU:  "Intel Xeon Gold 6138 (simulated host)",
		PCIe: "Gen3 x16",
		H2D:  LinkParams{LatencyS: 7e-6, BandwidthBps: 12.18 * gb, BidSlowdown: 1.27},
		D2H:  LinkParams{LatencyS: 7e-6, BandwidthBps: 12.98 * gb, BidSlowdown: 1.41},
		GPU: GPUSpec{
			Name:            "NVIDIA Tesla V100 (simulated)",
			PeakFlops64:     7.0e12,
			PeakFlops32:     14.0e12,
			MemBandwidthBps: 900 * gb,
			MemBytes:        32 * GiB,
			KernelLaunchS:   5e-6,
			MaxEff64:        0.94,
			MaxEff32:        0.92,
			EffHalfDim:      520,
			EffSharpness:    1.7,
			SpikeAmp:        0.06,
			NoiseSigma:      0.015,
		},
		Host: HostSpec{
			PeakFlops64: 1.28e12, // 20 cores x AVX-512 FMA x 2.0 GHz
			PeakFlops32: 2.56e12,
			GemmEff:     0.80,
		},
	}
}

// Testbeds returns both canonical testbeds in paper order.
func Testbeds() []*Testbed { return []*Testbed{TestbedI(), TestbedII()} }

// ByName returns the canonical testbed with the given name ("Testbed I" or
// "Testbed II", case-sensitive), or an error.
func ByName(name string) (*Testbed, error) {
	for _, tb := range Testbeds() {
		if tb.Name == name {
			return tb, nil
		}
	}
	return nil, fmt.Errorf("machine: unknown testbed %q", name)
}

// Save writes the testbed as indented JSON to path.
func (t *Testbed) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("machine: marshal %s: %w", t.Name, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a testbed from a JSON file and validates it.
func Load(path string) (*Testbed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	var t Testbed
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("machine: parse %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
