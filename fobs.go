// Package fobs is a from-scratch implementation of FOBS — the Fast
// Object-Based data transfer System of Dickens & Gropp, "An Evaluation of
// Object-Based Data Transfers on High Performance Networks" (HPDC 2002) —
// over real sockets.
//
// FOBS moves a single large in-memory object over UDP with an effectively
// infinite send window and selective acknowledgements over the whole
// object, a greedy circular retransmission schedule, and a TCP control
// connection carrying the completion signal. It was designed for
// high-bandwidth, high-delay research networks where stock TCP leaves most
// of the pipe idle.
//
// The package is the runtime a caller uses: Send an object, and take it at
// a Listener — one transfer per Accept, many at once with Serve — plus
// directory trees (SendTree, ReceiveTree), the orchestration daemon
// (TaskDaemon) and the instruments that observe them. The reproduction of the
// paper's evaluation on a simulated testbed is not part of it: cmd/fobs-bench
// and cmd/fobs-sim drive it from internal/experiments.
//
// Quick start (loopback):
//
//	l, _ := fobs.Listen("127.0.0.1:0", fobs.Options{})
//	go fobs.Send(ctx, l.Addr(), object, fobs.Config{}, fobs.Options{})
//	copy, _, _ := l.Accept(ctx)
package fobs

import (
	"context"

	"github.com/hpcnet/fobs/internal/core"
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

// The defaults of Config's zero value: the paper's tuned protocol.
const (
	// DefaultAckFrequency is the receiver's default acknowledgement
	// cadence.
	DefaultAckFrequency = core.DefaultAckFrequency
	// DefaultBatch is the paper's tuned batch-send size.
	DefaultBatch = core.DefaultBatch
)

// Real-network runtime.
type (
	// Options tunes the socket runtime: the congestion policy, pacing and
	// striping, the failure model's liveness watchdogs and handshake
	// timeout, the retry supervisor (Retry), Send's only retry, resumption
	// and the instruments. Socket buffers (4 MiB), the sender's idle poll
	// (2 ms) and the batched-IO ring (32 datagrams) are constants.
	Options = udprt.Options
	// Listener is a receiving endpoint. It takes a transfer three ways:
	// Accept runs one per call, Serve runs many at once, and AcceptSession
	// holds one sender's connection for a sequence of objects.
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

// TreeSummary reports one tree transfer: files and directories over FOBS
// sessions (see internal/xfer).
type TreeSummary = xfer.Summary

// SendTree transfers every regular file under root to the tree receiver at
// addr (see ReceiveTree), with per-file CRC verification.
func SendTree(ctx context.Context, addr, root string, cfg Config, opts Options) (TreeSummary, error) {
	return xfer.SendTree(ctx, addr, root, cfg, opts)
}

// ReceiveTree accepts one tree-transfer session at l and writes it under
// destRoot.
func ReceiveTree(ctx context.Context, l *Listener, destRoot string) (TreeSummary, error) {
	return xfer.ReceiveTree(ctx, l, destRoot)
}
