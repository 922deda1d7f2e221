// Package vids is the public façade of this repository: a
// reproduction of "VoIP Intrusion Detection Through Interacting
// Protocol State Machines" (Sengar, Wijesekera, Wang, Jajodia,
// DSN 2006).
//
// The heart of the system is an intrusion detection engine that
// monitors VoIP calls with one communicating extended finite state
// machine (EFSM) system per call: a SIP machine tracking signaling
// and two RTP machines tracking the media directions, synchronized by
// δ messages over FIFO queues. Deviations from the protocol
// specification or transitions into annotated attack states raise
// alerts.
//
// Quick start:
//
//	s := vids.NewSimulator(1)
//	d := vids.New(s, vids.DefaultConfig())
//	d.OnAlert = func(a vids.Alert) { fmt.Println(a) }
//	// feed packets via d.Process, or place it inline on a simulated
//	// network with d.Transit().
//
// For a full testbed (the paper's Figure 7 topology with proxies,
// user agents, G.729 media and an attacker attachment point) use
// NewTestbed; for regenerating the paper's figures and tables use the
// Experiment runners (Fig8, Fig9, Fig10, CPUOverhead, Memory,
// Accuracy, Sensitivity, Ablation).
package vids

import (
	"vids/internal/bufpool"
	"vids/internal/engine"
	"vids/internal/experiments"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/sim"
	"vids/internal/workload"
)

// Core IDS types.
type (
	// IDS is the vids engine: packet classifier, event distributor,
	// call state fact base, attack scenarios and analysis engine.
	IDS = ids.IDS
	// Config parameterizes the detectors and the inline
	// processing-cost model.
	Config = ids.Config
	// Alert is one detection event.
	Alert = ids.Alert
	// AlertType classifies alerts by attack pattern.
	AlertType = ids.AlertType
	// CallMonitor is one fact-base entry: the communicating machines
	// of one monitored call.
	CallMonitor = ids.CallMonitor
	// RTPThresholds are the media-stream detector parameters.
	RTPThresholds = ids.RTPThresholds
	// Backend selects the EFSM execution backend (Config.Backend):
	// specgen-compiled dispatch tables or the interpreted reference
	// walker.
	Backend = ids.Backend
)

// EFSM execution backends. Compiled is the default (zero value); the
// interpreted reference backend remains available for differential
// testing and spec debugging.
const (
	BackendCompiled    = ids.BackendCompiled
	BackendInterpreted = ids.BackendInterpreted
)

// Alert types (see the paper's Sections 3 and 6).
const (
	AlertInviteFlood    = ids.AlertInviteFlood
	AlertByeDoS         = ids.AlertByeDoS
	AlertTollFraud      = ids.AlertTollFraud
	AlertMediaSpam      = ids.AlertMediaSpam
	AlertCodecViolation = ids.AlertCodecViolation
	AlertRTPFlood       = ids.AlertRTPFlood
	AlertCallHijack     = ids.AlertCallHijack
	AlertSpoofedBye     = ids.AlertSpoofedBye
	AlertSpoofedCancel  = ids.AlertSpoofedCancel
	AlertDeviation      = ids.AlertDeviation
	AlertUnsolicitedRTP = ids.AlertUnsolicitedRTP
	AlertDRDoS          = ids.AlertDRDoS
	AlertRogueRegister  = ids.AlertRogueRegister
	AlertRTCPBye        = ids.AlertRTCPBye
)

// New creates a vids instance bound to a simulator clock.
func New(s *Simulator, cfg Config) *IDS { return ids.New(s, cfg) }

// DefaultConfig returns the calibrated detector defaults.
func DefaultConfig() Config { return ids.DefaultConfig() }

// Simulation types.
type (
	// Simulator is the deterministic discrete-event clock.
	Simulator = sim.Simulator
	// Network is the simulated topology.
	Network = sim.Network
	// Packet is a datagram in flight.
	Packet = sim.Packet
	// Addr is a host:port endpoint.
	Addr = sim.Addr
)

// Protocol labels for Packet.Proto.
const (
	ProtoSIP  = sim.ProtoSIP
	ProtoRTP  = sim.ProtoRTP
	ProtoRTCP = sim.ProtoRTCP
)

// Shard-tier types (internal/engine): the concurrent detection workers
// behind the ingestion tier. Build the pipeline with NewIngress; its
// Engine method exposes the tier for per-shard statistics.
type (
	// Engine is the shard tier: N workers, each owning the per-call
	// machines of the calls hashed to it.
	Engine = engine.Engine
	// EngineConfig parameterizes shards, queues and backpressure.
	EngineConfig = engine.Config
	// EngineStats is a point-in-time pipeline snapshot.
	EngineStats = engine.Stats
	// QueuePolicy selects the full-queue behavior.
	QueuePolicy = engine.Policy
)

// Queue policies.
const (
	// QueueBlock makes ingestion wait for space (lossless).
	QueueBlock = engine.Block
	// QueueDropOldest evicts the oldest queued packet (live capture).
	QueueDropOldest = engine.DropOldest
	// QueueShed drops media before signaling under overload (tiered
	// live-capture degradation).
	QueueShed = engine.Shed
)

// Ingestion-tier types (internal/ingress): the online pipeline's front
// end, which scans each datagram once, keeps flood accounting on
// lock-striped lanes, and hands packets to the shard that owns their
// call, with pooled receive buffers.
type (
	// Ingress is the online pipeline: the multi-lane ingestion tier
	// wrapping an Engine.
	Ingress = ingress.Ingress
	// IngressConfig parameterizes lanes, buffers and the wrapped engine.
	IngressConfig = ingress.Config
	// TraceSource replays a captured trace file into an Ingress,
	// optionally paced.
	TraceSource = ingress.TraceSource
	// UDPListeners binds SO_REUSEPORT socket pairs feeding an Ingress.
	UDPListeners = ingress.UDPListeners
	// BufferPool is the fixed-size receive-buffer free list.
	BufferPool = bufpool.Pool
)

// NewIngress starts the online detection pipeline: the multi-lane
// ingestion tier and the shard workers behind it. Close it to drain
// the lanes and the shard queues and merge the alert logs.
func NewIngress(cfg IngressConfig) *Ingress { return ingress.New(cfg) }

// NewBufferPool creates a receive-buffer free list (size <= 0 picks
// the default 64 KiB datagram capacity).
func NewBufferPool(size int) *BufferPool { return bufpool.New(size) }

// NewSimulator creates a seeded virtual clock.
func NewSimulator(seed int64) *Simulator { return sim.New(seed) }

// NewNetwork creates an empty topology on a simulator.
func NewNetwork(s *Simulator) *Network { return sim.NewNetwork(s) }

// Testbed types (the paper's Figure 7 deployment).
type (
	// Testbed is the two-enterprise evaluation network.
	Testbed = workload.Testbed
	// TestbedConfig parameterizes the testbed and calling pattern.
	TestbedConfig = workload.Config
	// CallRecord captures one generated call's lifecycle.
	CallRecord = workload.CallRecord
)

// NewTestbed builds the Figure 7 topology.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) { return workload.New(cfg) }

// DefaultTestbedConfig mirrors the paper's testbed parameters.
func DefaultTestbedConfig() TestbedConfig { return workload.DefaultConfig() }

// Experiment runners (Section 7). Each regenerates one figure or
// table of the paper's evaluation.
type (
	// ExperimentOptions scales the experiment runs.
	ExperimentOptions = experiments.Options
	// Fig8Result holds the call arrival/duration workload data.
	Fig8Result = experiments.Fig8Result
	// Fig9Result holds the call-setup-delay comparison.
	Fig9Result = experiments.Fig9Result
	// Fig10Result holds the RTP QoS comparison.
	Fig10Result = experiments.Fig10Result
	// CPUResult holds the vids CPU-overhead measurement.
	CPUResult = experiments.CPUResult
	// MemoryResult holds the per-call memory accounting.
	MemoryResult = experiments.MemoryResult
	// AccuracyResult holds the detection-accuracy table.
	AccuracyResult = experiments.AccuracyResult
	// SensitivityResult holds the timer-sweep tables.
	SensitivityResult = experiments.SensitivityResult
	// AblationResult holds the cross-protocol ablation outcome.
	AblationResult = experiments.AblationResult
	// AuthResult holds the authentication-sufficiency experiment.
	AuthResult = experiments.AuthResult
	// PreventionResult holds the detection-vs-prevention availability
	// experiment.
	PreventionResult = experiments.PreventionResult
	// EngineScalingResult holds the online-engine scaling measurement.
	EngineScalingResult = experiments.EngineResult
	// BackendsResult holds the compiled-vs-interpreted dispatch
	// comparison.
	BackendsResult = experiments.BackendsResult
)

// Fig8 regenerates Figure 8 (call arrivals and durations).
func Fig8(o ExperimentOptions) (*Fig8Result, error) { return experiments.Fig8(o) }

// Fig9 regenerates Figure 9 (call setup delay with vs. without vids).
func Fig9(o ExperimentOptions) (*Fig9Result, error) { return experiments.Fig9(o) }

// Fig10 regenerates Figure 10 (RTP delay and jitter impact).
func Fig10(o ExperimentOptions) (*Fig10Result, error) { return experiments.Fig10(o) }

// CPUOverhead regenerates the Section 7.3 CPU measurement.
func CPUOverhead(o ExperimentOptions) (*CPUResult, error) { return experiments.CPUOverhead(o) }

// Memory regenerates the Section 7.3 per-call memory accounting.
func Memory(o ExperimentOptions) (*MemoryResult, error) { return experiments.Memory(o) }

// Accuracy regenerates the Section 7.5 detection-accuracy evaluation.
func Accuracy(o ExperimentOptions) (*AccuracyResult, error) { return experiments.Accuracy(o) }

// Sensitivity regenerates the Section 7.5 timer-sensitivity sweeps.
func Sensitivity(o ExperimentOptions) (*SensitivityResult, error) {
	return experiments.Sensitivity(o)
}

// Ablation runs experiment A1: the spoofed BYE DoS with and without
// the cross-protocol synchronization channel.
func Ablation(o ExperimentOptions) (*AblationResult, error) { return experiments.Ablation(o) }

// Auth runs experiment E8: shared-secret authentication stops
// outsider spoofing but not authenticated misbehaving endpoints
// (paper Section 3.1) — vids remains necessary.
func Auth(o ExperimentOptions) (*AuthResult, error) { return experiments.Auth(o) }

// Prevention runs experiment E9: victim availability under an INVITE
// flood, detection-only vs. inline prevention (the paper's cited
// "future of VoIP security").
func Prevention(o ExperimentOptions) (*PreventionResult, error) {
	return experiments.Prevention(o)
}

// EngineScaling runs experiment E10: the online sharded engine's
// throughput at 1 vs. NumCPU shards, with alert-stream parity checked.
func EngineScaling(o ExperimentOptions) (*EngineScalingResult, error) {
	return experiments.EngineScaling(o)
}

// Backends runs experiment E12: the specgen-compiled EFSM dispatch
// against the interpreted reference walker on one synthesized
// workload, swept across engine shard counts with alert-stream parity
// checked in every cell.
func Backends(o ExperimentOptions) (*BackendsResult, error) {
	return experiments.Backends(o)
}
