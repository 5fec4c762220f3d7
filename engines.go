package accelstream

import (
	"io"

	"accelstream/internal/hwjoin"
	"accelstream/internal/hwsim"
	"accelstream/internal/softjoin"
	"accelstream/internal/synth"
)

// Tracer records simulated-design signals as a VCD waveform.
type Tracer = hwsim.Tracer

// NewTracer builds a VCD tracer writing to w. Attach it with a design's
// AttachDefaultProbes (or your own Probe calls) and drive the simulation
// with Sim().RunTraced.
func NewTracer(w io.Writer) *Tracer { return hwsim.NewTracer(w) }

// SoftwareConfig parameterizes the multicore software engines.
type SoftwareConfig = softjoin.Config

// SoftwareUniFlow is the software SplitJoin engine (Figure 14d / 16 of the
// paper): a distributor goroutine and independent join-core goroutines
// with round-robin sub-window storage, each handing its results for a
// batch onto the shared result stream in one burst.
type SoftwareUniFlow = softjoin.UniFlow

// NewSoftwareUniFlow builds (but does not start) a software SplitJoin.
func NewSoftwareUniFlow(cfg SoftwareConfig) (*SoftwareUniFlow, error) {
	return softjoin.NewUniFlow(cfg)
}

// SoftwareBiFlow is the software handshake-join chain baseline.
type SoftwareBiFlow = softjoin.BiFlow

// NewSoftwareBiFlow builds (but does not start) a software handshake join.
func NewSoftwareBiFlow(cfg SoftwareConfig) (*SoftwareBiFlow, error) {
	return softjoin.NewBiFlow(cfg)
}

// NetworkKind selects the distribution / result-gathering networks of the
// simulated hardware designs.
type NetworkKind = hwjoin.NetworkKind

// The two network designs of Section IV.
const (
	// Lightweight broadcasts/collects directly; cheap but its clock
	// frequency degrades with core count.
	Lightweight = hwjoin.Lightweight
	// Scalable uses pipelined DNode/GNode trees; log-depth latency and a
	// flat clock frequency.
	Scalable = hwjoin.Scalable
)

// Flit is one word on the simulated hardware's input bus.
type Flit = hwjoin.Flit

// TupleFlit wraps a tuple for the simulated ingress bus.
func TupleFlit(side Side, t Tuple) Flit { return hwjoin.TupleFlit(side, t) }

// HardwareUniFlowConfig parameterizes a simulated uni-flow FPGA design.
type HardwareUniFlowConfig = hwjoin.UniFlowConfig

// HardwareUniFlow is the cycle-level simulated uni-flow design (Figure 9):
// distribution network → independent join cores → result gathering network.
type HardwareUniFlow = hwjoin.UniFlowDesign

// NewHardwareUniFlow builds the simulated design around a flit generator;
// keepResults retains results for verification (disable for throughput
// runs).
func NewHardwareUniFlow(cfg HardwareUniFlowConfig, keepResults bool, next func() (Flit, bool)) (*HardwareUniFlow, error) {
	return hwjoin.BuildUniFlow(cfg, keepResults, next)
}

// HardwareBiFlowConfig parameterizes a simulated bi-flow FPGA design.
type HardwareBiFlowConfig = hwjoin.BiFlowConfig

// HardwareBiFlow is the cycle-level simulated bi-flow chain (Figure 8a).
type HardwareBiFlow = hwjoin.BiFlowDesign

// NewHardwareBiFlow builds the simulated bi-flow chain.
func NewHardwareBiFlow(cfg HardwareBiFlowConfig, keepResults bool, next func() (Flit, bool)) (*HardwareBiFlow, error) {
	return hwjoin.BuildBiFlow(cfg, keepResults, next)
}

// Device is an FPGA capacity/speed model.
type Device = synth.Device

// The paper's two evaluation platforms.
var (
	// Virtex5LX50T models the ML505 board's XC5VLX50T.
	Virtex5LX50T = synth.Virtex5LX50T
	// Virtex7VX485T models the VC707 board's XC7VX485T.
	Virtex7VX485T = synth.Virtex7VX485T
)

// DesignSpec identifies a hardware configuration for the synthesis model.
type DesignSpec = synth.DesignSpec

// SynthReport is a synthesis-style report: resources, fit, Fmax, power.
type SynthReport = synth.Report

// Synthesize estimates resources, feasibility, achievable clock, and power
// for a design on a device — the model standing in for the Xilinx tool
// chain's reports (calibration documented in EXPERIMENTS.md).
func Synthesize(spec DesignSpec, dev Device) (SynthReport, error) {
	return synth.Synthesize(spec, dev)
}
