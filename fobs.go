// Package fobs is a from-scratch implementation and evaluation harness for
// FOBS — the Fast Object-Based data transfer System of Dickens & Gropp,
// "An Evaluation of Object-Based Data Transfers on High Performance
// Networks" (HPDC 2002).
//
// FOBS moves a single large in-memory object over UDP with an effectively
// infinite send window and selective acknowledgements over the whole
// object, a greedy circular retransmission schedule, and a TCP control
// connection carrying the completion signal. It was designed for
// high-bandwidth, high-delay research networks where stock TCP leaves most
// of the pipe idle.
//
// The package exposes three layers:
//
//   - A real-network runtime (Send / Listen) that transfers objects over
//     genuine UDP and TCP sockets — usable on loopback, LAN or WAN.
//   - A deterministic discrete-event simulation (Simulate and the Scenario
//     presets) reproducing the paper's Abilene testbed paths, with TCP
//     (±Large Window extensions), PSockets, RUDP and SABUL baselines
//     implemented alongside FOBS.
//   - The experiment harness behind every table and figure in the paper's
//     evaluation (AckFrequencySweep, PacketSizeSweep, Table1, Table2, …),
//     also driven by the benchmarks in bench_test.go and by cmd/fobs-bench.
//
// Quick start (real sockets, loopback):
//
//	l, _ := fobs.Listen("127.0.0.1:0", fobs.Options{})
//	go fobs.Send(ctx, l.Addr(), object, fobs.Config{}, fobs.Options{})
//	copy, _, _ := l.Accept(ctx)
//
// Quick start (simulation):
//
//	res := fobs.Simulate(fobs.LongHaul(), 1, 40<<20, fobs.Config{AckFrequency: 64})
//	fmt.Printf("%.0f%% of the pipe, %.1f%% waste\n",
//		100*res.Utilization(100e6), 100*res.Waste())
package fobs

import (
	"context"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/experiments"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/tasks"
	"github.com/hpcnet/fobs/internal/udprt"
	"github.com/hpcnet/fobs/internal/wire"
	"github.com/hpcnet/fobs/internal/xfer"
)

// Protocol configuration and policies (see internal/core for details).
type (
	// Config parameterizes a FOBS transfer: packet size, acknowledgement
	// frequency, batch policy, retransmission schedule and rate control.
	// The zero value reproduces the paper's tuned protocol.
	Config = core.Config
	// FixedBatch always sends N packets per batch; FixedBatch(2) is the
	// paper's tuned sender.
	FixedBatch = core.FixedBatch
	// SenderStats and ReceiverStats are per-endpoint transfer counters.
	SenderStats   = core.SenderStats
	ReceiverStats = core.ReceiverStats
)

// Real-network runtime.
type (
	// Options tunes the socket runtime: the congestion policy, pacing and
	// striping, the failure model's liveness watchdogs and handshake
	// timeout, the retry supervisor (Retry), Send's only retry, resumption
	// and the instruments. Socket buffers (4 MiB), the sender's idle poll
	// (2 ms) and the batched-IO ring (32 datagrams) are constants.
	Options = udprt.Options
	// Listener accepts incoming FOBS transfers.
	Listener = udprt.Listener
	// RetryPolicy configures the sender-side retry/backoff supervisor.
	// Hang one on Options.Retry and Send re-dials failed transfers with
	// jittered exponential backoff, resuming from the receiver's HAVE
	// bitmap when the peer retained the partial transfer.
	RetryPolicy = udprt.RetryPolicy
	// IOCounters tallies the batched-IO layer's syscalls and batch fill
	// (sendmmsg/recvmmsg vector lengths, fast-path engagement). Point
	// Options.IOCounters at one to collect a transfer's tallies.
	IOCounters = stats.IOCounters
)

// MaxStreams is the wire-format limit on Options.Streams: how many
// parallel stripes one striped transfer may announce.
const MaxStreams = wire.MaxStreams

// CCFixed names the congestion policy for Options.Congestion that is the
// paper's greedy sender at its configured rate — the library default.
const CCFixed = udprt.CCFixed

// CongestionPolicies lists the selectable congestion policy names, CCFixed
// first: the related work's adaptive loops ("aimd", "sabul") and the §7
// extensions ("backoff", "hybrid") beside it.
func CongestionPolicies() []string { return udprt.CongestionPolicies() }

// Live observability (see internal/metrics). Point Options.Metrics at a
// Metrics registry and every transfer the runtime runs — sender or
// receiver, single, session or server — records its packets, bytes, acks,
// retransmissions, watchdog firings and phase timestamps there.
type (
	// Metrics is a registry of live per-transfer counters and lifecycle
	// events. Snapshot() returns everything; StartReporter emits periodic
	// one-line summaries; ServeMetricsDebug exposes it over HTTP.
	Metrics = metrics.Registry
	// MetricsDebugServer is a running debug HTTP endpoint.
	MetricsDebugServer = metrics.DebugServer
)

// What the commands read back from a Metrics snapshot: the terminal
// outcomes of a transfer's record, and the sending endpoint's role for
// Snapshot().Find. (Roles and lifecycle event kinds are internal/obs's —
// one vocabulary for the metrics' event ring, flight recordings and span
// logs; outcomes are internal/metrics'.)
const (
	OutcomeCompleted = metrics.OutcomeCompleted
	OutcomeAborted   = metrics.OutcomeAborted
	RoleSender       = obs.RoleSender
)

// NewMetrics returns an empty metrics registry to hang on Options.Metrics.
func NewMetrics() *Metrics { return metrics.New() }

// Flight recording (see internal/flight). Point Options.Record at a
// FlightLog and every transfer records its packet-level protocol decisions
// — each send with attempt number, each acknowledgement with the packets it
// newly covered, batch-size changes, phase transitions — into a compact
// .fobrec file that cmd/fobs-analyze verifies and replays offline.
//
// FlightLog is one .fobrec capture in progress; CreateFlightLog opens one on
// disk, Close seals it.
type FlightLog = flight.Log

// CreateFlightLog opens path for writing as a .fobrec flight recording;
// hang the result on Options.Record and Close it after the transfers end.
func CreateFlightLog(path string) (*FlightLog, error) { return flight.Create(path) }

// ServeMetricsDebug starts an HTTP server on addr (":0" for ephemeral)
// serving the registry as expvar-style JSON (/debug/fobs), sampled trace
// series (/debug/fobs/trace CSV, /debug/fobs/charts ASCII) and the
// standard pprof profiles (/debug/pprof/).
func ServeMetricsDebug(addr string, reg *Metrics) (*MetricsDebugServer, error) {
	return metrics.ServeDebug(addr, reg)
}

// FastPathAvailable reports whether this build can use the vectored
// sendmmsg/recvmmsg fast path at all (Linux on a supported 64-bit
// architecture). Options.NoFastPath forces the scalar path regardless.
func FastPathAvailable() bool { return udprt.FastPathAvailable() }

// Listen binds addr (e.g. "0.0.0.0:7700") for incoming transfers: TCP for
// control, UDP on the same port for data.
func Listen(addr string, opts Options) (*Listener, error) {
	return udprt.Listen(addr, opts)
}

// Send transfers obj to the FOBS listener at addr over real sockets, on the
// control connection an earlier successful Send to addr kept, or a new one.
func Send(ctx context.Context, addr string, obj []byte, cfg Config, opts Options) (SenderStats, error) {
	return udprt.Send(ctx, addr, obj, cfg, opts)
}

// Server accepts many concurrent transfers on one address, demultiplexed
// by each sender's Transfer tag.
type Server = udprt.Server

// NewServer binds addr for concurrent incoming transfers; drive it with
// Server.Serve.
func NewServer(addr string, opts Options) (*Server, error) {
	return udprt.NewServer(addr, opts)
}

// Orchestration types wrap the tasks package: a daemon that queues
// submitted transfer tasks durably, dispatches them through a bounded
// mover pool with per-tenant fairness and rate caps, and — because every
// state transition persists before it is observable — resumes queued and
// in-flight tasks after a crash or restart. cmd/fobsd is the operational
// wrapper; see DESIGN.md §5h for the lifecycle and store format.
type (
	// TaskDaemon is the orchestrator; construct with NewTaskDaemon, drive
	// with Run, control with Submit/Cancel/Get/List or the HTTP Handler.
	TaskDaemon = tasks.Daemon
	// TaskDaemonConfig configures a TaskDaemon.
	TaskDaemonConfig = tasks.Config
	// TaskSpec is one submitted transfer request.
	TaskSpec = tasks.Spec
	// Task is a task snapshot: spec plus lifecycle bookkeeping.
	Task = tasks.Task
	// TaskState is a task's lifecycle position.
	TaskState = tasks.State
	// TaskStats is the completed attempt's transfer accounting.
	TaskStats = tasks.Stats
)

// The task lifecycle states the commands read: the first, and the one that
// ends well (internal/tasks has the rest).
const (
	TaskQueued = tasks.StateQueued
	TaskDone   = tasks.StateDone
)

// Lifecycle tracing wraps the obs package: a versioned JSONL span log of
// phase-level transfer events (dial, handshake, rounds, drain, verify,
// verdict), correlated across hosts by a 16-byte trace id that rides the
// control channel. Hand a *TraceLog to Options.Trace (any endpoint) or
// TaskDaemonConfig.Trace; join the two endpoints' logs offline with
// fobs-analyze -events.
type (
	// TraceLog is an append-only span log; construct with CreateTraceLog
	// and Close it to flush.
	TraceLog = obs.Log
	// TaskEvent is one entry in a task's durable timeline (see
	// TaskDaemon and GET /tasks/{id}/events).
	TaskEvent = tasks.TaskEvent
)

// CreateTraceLog starts a span log writing to a new file at path.
func CreateTraceLog(path string) (*TraceLog, error) { return obs.Create(path) }

// NewTaskDaemon opens (or creates) the configured state directory, loads
// every persisted task, and requeues the non-terminal ones.
func NewTaskDaemon(cfg TaskDaemonConfig) (*TaskDaemon, error) {
	return tasks.New(cfg)
}

// SessionListener accepts multi-object sessions — a sequence of objects to
// one receiver over a single socket pair, the remote-visualization workload.
type SessionListener = udprt.SessionListener

// ListenSession binds addr for incoming multi-object sessions.
func ListenSession(addr string, opts Options) (*SessionListener, error) {
	return udprt.ListenSession(addr, opts)
}

// TreeSummary reports one tree transfer: files and directories over FOBS
// sessions (see internal/xfer).
type TreeSummary = xfer.Summary

// SendTree transfers every regular file under root to the tree receiver at
// addr (see ReceiveTree), with per-file CRC verification.
func SendTree(ctx context.Context, addr, root string, cfg Config, opts Options) (TreeSummary, error) {
	return xfer.SendTree(ctx, addr, root, cfg, opts)
}

// ReceiveTree accepts one tree-transfer session and writes it under
// destRoot.
func ReceiveTree(ctx context.Context, sl *SessionListener, destRoot string) (TreeSummary, error) {
	return xfer.ReceiveTree(ctx, sl, destRoot)
}

// Simulation and evaluation harness.
type (
	// Scenario is a simulated testbed path (see ShortHaul, LongHaul,
	// Gigabit, Contended).
	Scenario = experiments.Scenario
	// TransferResult summarizes one transfer by any protocol.
	TransferResult = stats.TransferResult
	// AckSweepPoint, PacketSizePoint, BatchSweepPoint and
	// ScheduleSweepPoint are sweep samples for the paper's figures and
	// ablations.
	AckSweepPoint      = experiments.AckSweepPoint
	PacketSizePoint    = experiments.PacketSizePoint
	BatchSweepPoint    = experiments.BatchSweepPoint
	ScheduleSweepPoint = experiments.ScheduleSweepPoint
	// Table1Result and Table2Result mirror the paper's tables.
	Table1Result = experiments.Table1Result
	Table2Result = experiments.Table2Result
	// RelatedWorkResult compares FOBS with RUDP and SABUL.
	RelatedWorkResult = experiments.RelatedWorkResult
	// ExtensionResult compares the §7 congestion-control extensions.
	ExtensionResult = experiments.ExtensionResult
)

// Paper-matching defaults.
const (
	// ObjectSize is the paper's 40 MB evaluation transfer.
	ObjectSize = experiments.ObjectSize
	// PacketSize is the paper's 1024-byte data packet.
	PacketSize = experiments.PacketSize
	// DefaultAckFrequency is the receiver's default acknowledgement
	// cadence.
	DefaultAckFrequency = core.DefaultAckFrequency
	// DefaultBatch is the paper's tuned batch-send size.
	DefaultBatch = core.DefaultBatch
)

// Scenario presets reproducing the paper's testbed paths.
var (
	// ShortHaul is the ANL–LCSE path: 26 ms RTT, 100 Mb/s bottleneck.
	ShortHaul = experiments.ShortHaul
	// LongHaul is the ANL–CACR path: 65 ms RTT, 100 Mb/s bottleneck.
	LongHaul = experiments.LongHaul
	// Gigabit is the NCSA–LCSE path: GigE NICs, OC-12 backbone.
	Gigabit = experiments.Gigabit
	// Contended is the NCSA–CACR path of Table 2 under heavy contention.
	Contended = experiments.Contended
)

// Quiet returns a copy of the scenario as measured during a calm window:
// no cross traffic, only light scattered ambient loss. The paper's FOBS
// sweeps (Figures 1–3) were taken in such windows.
func Quiet(sc Scenario) Scenario { return experiments.Quiet(sc) }

// Simulate runs one FOBS transfer of objSize bytes over the scenario on
// the deterministic simulator and returns its result.
func Simulate(sc Scenario, seed int64, objSize int64, cfg Config) TransferResult {
	return experiments.RunFOBS(sc, seed, objSize, cfg)
}

// SimulateTCP runs one bulk TCP transfer over the scenario, with or
// without the RFC 1323 Large Window extensions.
func SimulateTCP(sc Scenario, seed int64, objSize int64, largeWindows bool) TransferResult {
	return experiments.RunTCP(sc, seed, objSize, largeWindows)
}

// AckFrequencySweep regenerates the data behind Figures 1 and 2.
func AckFrequencySweep(objSize int64, freqs []int) []AckSweepPoint {
	return experiments.AckFrequencySweep(objSize, freqs)
}

// PacketSizeSweep regenerates the data behind Figure 3.
func PacketSizeSweep(objSize int64, sizes []int) []PacketSizePoint {
	return experiments.PacketSizeSweep(objSize, sizes)
}

// Table1 regenerates the paper's Table 1 (TCP ± LWE).
func Table1(objSize int64) Table1Result { return experiments.Table1(objSize) }

// Table2 regenerates the paper's Table 2 (FOBS vs PSockets).
func Table2(objSize int64) Table2Result { return experiments.Table2(objSize) }

// BatchSweep runs the batch-size ablation of §3.1.
func BatchSweep(objSize int64, batches []int) []BatchSweepPoint {
	return experiments.BatchSweep(objSize, batches)
}

// ScheduleSweep runs the packet-choice ablation of §3.1.
func ScheduleSweep(objSize int64) []ScheduleSweepPoint {
	return experiments.ScheduleSweep(objSize)
}

// RelatedWork compares FOBS against the RUDP and SABUL baselines of §2.
func RelatedWork(objSize int64, sc Scenario) RelatedWorkResult {
	return experiments.RelatedWork(objSize, sc)
}

// Lossy returns a copy of the scenario with burst contention removed and
// the given Bernoulli ambient loss — the non-QoS wide-area conditions the
// paper designs FOBS for.
func Lossy(sc Scenario, p float64) Scenario { return experiments.Lossy(sc, p) }

// Extensions compares the congestion-control extensions of §7.
func Extensions(objSize int64) ExtensionResult {
	return experiments.Extensions(objSize)
}

// FairnessResult reports how concurrent greedy FOBS flows share one
// bottleneck (Jain's index over per-flow goodputs).
type FairnessResult = experiments.FairnessResult

// Fairness runs n concurrent greedy FOBS transfers over one long-haul
// path — the sharing question behind the paper's §7.
func Fairness(objSize int64, n int) FairnessResult { return experiments.Fairness(objSize, n) }

// REDResult compares TCP's and FOBS's response to Random Early Detection.
type REDResult = experiments.REDResult

// REDResponse runs TCP and FOBS over a mid-path bottleneck with drop-tail
// and with RED queue management.
func REDResponse(objSize int64) REDResult { return experiments.REDResponse(objSize) }

// QoSResult compares the protocols against a policed QoS reservation.
type QoSResult = experiments.QoSResult

// QoSReservation runs greedy FOBS, backed-off FOBS, SABUL and RUDP against
// a 50 Mb/s token-bucket contract at the network edge.
func QoSReservation(objSize int64) QoSResult { return experiments.QoSReservation(objSize) }

// StripingPoint is one row of the FOBS-striping ablation.
type StripingPoint = experiments.StripingPoint

// StripingSweep divides one object across parallel FOBS flows — PSockets'
// trick applied to FOBS, which (unlike TCP) has nothing for it to fix.
func StripingSweep(objSize int64, counts []int) []StripingPoint {
	return experiments.StripingSweep(objSize, counts)
}

// RenderStripingSweep formats the striping ablation.
func RenderStripingSweep(pts []StripingPoint, maxBandwidth float64) string {
	return experiments.RenderStripingSweep(pts, maxBandwidth)
}

// IncastResult reports the many-senders-one-receiver stress test.
type IncastResult = experiments.IncastResult

// Incast runs n greedy FOBS senders into one 100 Mb/s receiver.
func Incast(objSize int64, n int) IncastResult { return experiments.Incast(objSize, n) }

// Default sweep axes matching the paper's evaluation.
var (
	DefaultAckFrequencies = experiments.DefaultAckFrequencies
	DefaultPacketSizes    = experiments.DefaultPacketSizes
	DefaultBatchSizes     = experiments.DefaultBatchSizes
)

// Figure is a renderable set of series sharing axes: the paper's figures.
type Figure = stats.Figure

// Figure1 formats an acknowledgement-frequency sweep as the paper's
// Figure 1 (percentage of maximum bandwidth).
func Figure1(pts []AckSweepPoint) *Figure { return experiments.Figure1(pts) }

// Figure2 formats the same sweep as the paper's Figure 2 (wasted network
// resources).
func Figure2(pts []AckSweepPoint) *Figure { return experiments.Figure2(pts) }

// Figure3 formats a packet-size sweep as the paper's Figure 3.
func Figure3(pts []PacketSizePoint) *Figure { return experiments.Figure3(pts) }

// RenderBatchSweep and RenderScheduleSweep format the §3.1 ablations.
func RenderBatchSweep(pts []BatchSweepPoint) string { return experiments.RenderBatchSweep(pts) }

// RenderScheduleSweep formats the packet-choice ablation.
func RenderScheduleSweep(pts []ScheduleSweepPoint) string {
	return experiments.RenderScheduleSweep(pts)
}

// TCPVariantPoint is one row of the TCP congestion-control ablation.
type TCPVariantPoint = experiments.TCPVariantPoint

// TCPVariants compares Tahoe, Reno and NewReno on the lossy long haul.
func TCPVariants(objSize int64) []TCPVariantPoint { return experiments.TCPVariants(objSize) }

// RenderTCPVariants formats the TCP variant ablation.
func RenderTCPVariants(pts []TCPVariantPoint) string { return experiments.RenderTCPVariants(pts) }
