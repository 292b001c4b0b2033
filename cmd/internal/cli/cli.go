// Package cli is what the transfer commands (fobs-send, fobs-recv, fobs-cp)
// share: the instrument flags, wired into fobs.Options by one constructor,
// and the run context that a timeout or SIGINT/SIGTERM ends.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hpcnet/fobs"
)

// Instruments are a command's instrument flags.
type Instruments struct {
	cmd           string
	debugAddr     *string
	statsInterval *time.Duration
	record        *string
	events        *string // nil when the command does not offer -events
	ioStats       *bool   // nil when the command does not offer -io-stats
	io            fobs.IOCounters
}

// Flags registers command cmd's instrument flags on the command line:
// -debug-addr, -stats-interval and -record, and, when oneTransfer is set,
// -events and -io-stats.
func Flags(cmd string, oneTransfer bool) *Instruments {
	in := &Instruments{
		cmd: cmd,
		debugAddr: flag.String("debug-addr", "",
			"serve live metrics + pprof over HTTP on this address (e.g. localhost:6060)"),
		statsInterval: flag.Duration("stats-interval", 0,
			"print a one-line metrics summary this often (0: off)"),
		record: flag.String("record", "",
			"write a packet-level flight recording of every transfer to this .fobrec file (analyze with fobs-analyze)"),
	}
	if oneTransfer {
		in.events = flag.String("events", "",
			"append lifecycle span events (JSONL) to this file; join with the peer's via fobs-analyze -events")
		in.ioStats = flag.Bool("io-stats", false, "print batched-IO syscall counters")
	}
	return in
}

// Open wires what the flags asked for into opts — a metrics registry
// (opts.Metrics when set) behind -debug-addr, -stats-interval or -record, the
// debug server, the reporter, the flight log, the span log, the socket
// counters — and returns the function that stops and seals them, which the
// caller defers. On an error Open has closed what it opened.
func (in *Instruments) Open(opts *fobs.Options) (closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	if in.ioStats != nil && *in.ioStats {
		opts.IOCounters = &in.io
	}
	if opts.Metrics == nil && (*in.debugAddr != "" || *in.statsInterval > 0 || *in.record != "") {
		opts.Metrics = fobs.NewMetrics()
	}
	if *in.debugAddr != "" {
		dbg, err := fobs.ServeMetricsDebug(*in.debugAddr, opts.Metrics)
		if err != nil {
			return nil, fmt.Errorf("debug server: %w", err)
		}
		closers = append(closers, func() { dbg.Close() })
		fmt.Printf("%s: metrics at http://%s/debug/fobs\n", in.cmd, dbg.Addr())
	}
	if *in.statsInterval > 0 {
		closers = append(closers, opts.Metrics.StartReporter(os.Stderr, *in.statsInterval))
	}
	if *in.record != "" {
		rec, err := fobs.CreateFlightLog(*in.record)
		if err != nil {
			return nil, err
		}
		opts.Record = rec
		closers = append(closers, func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: sealing %s: %v\n", in.cmd, *in.record, err)
				return
			}
			fmt.Printf("%s: flight recording sealed in %s\n", in.cmd, *in.record)
		})
	}
	if in.events != nil && *in.events != "" {
		tlog, err := fobs.CreateTraceLog(*in.events)
		if err != nil {
			return nil, err
		}
		opts.Trace = tlog
		closers = append(closers, func() { tlog.Close() })
	}
	return closeAll, nil
}

// PrintIO prints the transfer's socket counters when -io-stats asked for
// them.
func (in *Instruments) PrintIO() {
	if in.ioStats != nil && *in.ioStats {
		fmt.Printf("%s: io %s\n", in.cmd, in.io.String())
	}
}

// Context is a command's run context: it ends after timeout or at SIGINT or
// SIGTERM, so a transfer aborts cleanly and the command's defers still run.
func Context(timeout time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	return ctx, func() { stop(); cancel() }
}
