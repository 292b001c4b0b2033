// Package cli is the one place the transfer commands (fobs-send, fobs-recv,
// fobs-cp) and fobs-loopbench declare their flags. Each flag is declared
// once, with one help text, and sets one fobs.Options or fobs.Config field or
// one command input such as -file or -out. A command names the flags it
// offers (Send, Recv, Copy, Loopbench) and the defaults that are its own;
// Parse registers them on a flag.FlagSet and parses its command line.
// The package also holds what the commands share beyond flags: the
// instruments behind -debug-addr, -stats-interval, -record, -events and
// -io-stats, the run context that a timeout or SIGINT/SIGTERM ends, and the
// receive-buffer notice.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/internal/core"
)

// Spec is one command: its name, the flags it offers besides -timeout, which
// every command has, and its own defaults, by flag name: -timeout's, and any
// other flag's whose shared default does not suit the command.
type Spec struct {
	Name     string
	Flags    []string
	Defaults map[string]string
}

// The three transfer commands, and the loopback bench.
var (
	Send = Spec{"fobs-send", []string{
		"addr", "file", "size", "packet-size", "pace", "cc", "streams", "no-dedup",
		"progress", "retries", "retry-backoff", "stall-timeout", "handshake-timeout",
		"debug-addr", "stats-interval", "record", "events", "io-stats"},
		map[string]string{"timeout": "10m"}}
	Recv = Spec{"fobs-recv", []string{
		"listen", "out", "idle-timeout", "resume-window", "checkpoint",
		"debug-addr", "stats-interval", "record", "events", "io-stats"},
		map[string]string{"timeout": "10m"}}
	Copy = Spec{"fobs-cp", []string{
		"send", "recv", "addr", "listen", "packet-size", "checksum", "pace", "cc",
		"streams", "no-dedup", "resume-window", "checkpoint",
		"debug-addr", "stats-interval", "record"},
		map[string]string{"timeout": "1h"}}
	// Loopback paces a little by default: two endpoints on one host lose
	// an unpaced sender's packets in the receiver's socket buffer.
	Loopbench = Spec{"fobs-loopbench", []string{
		"size", "pace", "cc", "streams", "debug-addr", "stats-interval", "record"},
		map[string]string{"timeout": "5m", "size": "32MiB", "pace": "5us"}}
)

// PaceUsage is the help text of every -pace flag, fobsd's included.
const PaceUsage = "extra delay per packet, added to the gap the congestion policy sets (0: none)"

// Command is one command's parsed command line.
type Command struct {
	name string
	fs   *flag.FlagSet
	// Options and Config are the settings the flags set.
	Options fobs.Options
	Config  fobs.Config
	// The inputs: what a flag names that is not a setting.
	Addr, Listen, File, Size, Out, Send, Recv string
	Timeout                                   time.Duration

	progress      bool
	retry         fobs.RetryPolicy
	debugAddr     string
	statsInterval time.Duration
	record        string
	events        string
	ioStats       bool
	io            fobs.IOCounters
}

// define registers the flag called name on c.fs. Every flag the
// commands offer is one case here, declared once, with its one help text.
func (c *Command) define(name string) {
	fs := c.fs
	switch name {
	case "addr":
		fs.StringVar(&c.Addr, name, "127.0.0.1:7700", "the receiver's address")
	case "listen":
		fs.StringVar(&c.Listen, name, "127.0.0.1:7700", "address to listen on (TCP control + UDP data)")
	case "file":
		fs.StringVar(&c.File, name, "", "file to send (overrides -size)")
	case "size":
		fs.StringVar(&c.Size, name, "40MiB", "synthetic object size, in bytes or with a KiB/MiB/GiB or KB/MB/GB suffix (fobs-send: when no -file is given)")
	case "out":
		fs.StringVar(&c.Out, name, "", "file to write the received object to (empty: discard)")
	case "send":
		fs.StringVar(&c.Send, name, "", "directory tree to send")
	case "recv":
		fs.StringVar(&c.Recv, name, "", "directory to receive into")
	case "packet-size":
		fs.IntVar(&c.Config.PacketSize, name, core.DefaultPacketSize, "data packet payload bytes")
	case "checksum":
		fs.BoolVar(&c.Config.Checksum, name, true, "CRC-32C every data packet's payload, so a corrupted packet is dropped and sent again")
	case "pace":
		fs.DurationVar(&c.Options.Pace, name, 0, PaceUsage)
	case "cc":
		fs.StringVar(&c.Options.Congestion, name, fobs.CCFixed,
			fmt.Sprintf("the sender's congestion control policy (%s)", strings.Join(fobs.CongestionPolicies(), ", ")))
	case "streams":
		fs.IntVar(&c.Options.Streams, name, 1, fmt.Sprintf("parallel stripes per object, each its own UDP flow (1..%d)", fobs.MaxStreams))
	case "no-dedup":
		fs.BoolVar(&c.Options.NoDedup, name, false, "do not let the receiver answer from an object it already holds whole; move the bytes even if it holds them")
	case "progress":
		fs.BoolVar(&c.progress, name, false, "print transfer progress")
	case "retries":
		fs.IntVar(&c.retry.MaxRetries, name, 0, "re-dial a failed transfer up to this many times with exponential backoff (0: no retries)")
	case "retry-backoff":
		fs.DurationVar(&c.retry.Backoff, name, 0, "delay before the first retry, doubling each attempt (0: default 500ms; needs -retries)")
	case "stall-timeout":
		fs.DurationVar(&c.Options.StallTimeout, name, 0, "abort when no acknowledgement arrives for this long (0: default 15s, negative: disabled)")
	case "handshake-timeout":
		fs.DurationVar(&c.Options.HandshakeTimeout, name, 0, "bound on each announcement/HAVE exchange (0: default 10s)")
	case "idle-timeout":
		fs.DurationVar(&c.Options.IdleTimeout, name, 0, "abort when no data arrives mid-transfer for this long (0: default 30s, negative: disabled)")
	case "resume-window":
		fs.DurationVar(&c.Options.ResumeWindow, name, 0,
			"retain interrupted transfers this long so a sender of the same content sends only what is missing (0: default 60s, negative: disabled)")
	case "checkpoint":
		fs.StringVar(&c.Options.Checkpoint, name, "", "directory where the receiver keeps what it holds — verified objects for dedup, interrupted transfers for resume — so both survive a restart of this process")
	case "debug-addr":
		fs.StringVar(&c.debugAddr, name, "", "serve live metrics + pprof over HTTP on this address (e.g. localhost:6060)")
	case "stats-interval":
		fs.DurationVar(&c.statsInterval, name, 0, "print a one-line metrics summary this often (0: off)")
	case "record":
		fs.StringVar(&c.record, name, "", "write a packet-level flight recording of every transfer to this .fobrec file (analyze with fobs-analyze)")
	case "events":
		fs.StringVar(&c.events, name, "", "append lifecycle span events (JSONL) to this file; join with the peer's via fobs-analyze -events")
	case "io-stats":
		fs.BoolVar(&c.ioStats, name, false, "print batched-IO syscall counters")
	default:
		panic("cli: no flag " + name)
	}
}

// Parse registers spec's flags on a fresh flag set and parses args, the
// command line without the program name; a bad flag exits with the usage,
// as the flag package's own command line does. -retries and -retry-backoff
// become Options.Retry when -retries is set, -progress a printing
// Options.Progress.
func Parse(spec Spec, args []string) *Command {
	c := &Command{name: spec.Name, fs: flag.NewFlagSet(spec.Name, flag.ExitOnError)}
	c.fs.DurationVar(&c.Timeout, "timeout", 0, "give up after this long")
	for _, name := range spec.Flags {
		c.define(name)
	}
	for name, v := range spec.Defaults {
		f := c.fs.Lookup(name)
		if err := f.Value.Set(v); err != nil {
			panic(fmt.Sprintf("cli: %s's -%s default: %v", spec.Name, name, err))
		}
		f.DefValue = v
	}
	c.fs.Parse(args)
	if c.retry.MaxRetries > 0 {
		c.Options.Retry = &c.retry
	}
	if c.progress {
		lastPct := -1
		c.Options.Progress = func(done, total int) {
			if pct := 100 * done / total; pct/5 != lastPct/5 {
				lastPct = pct
				fmt.Printf("%s: %3d%% (%d/%d packets confirmed)\n", c.name, pct, done, total)
			}
		}
	}
	return c
}

// Open wires what the instrument flags asked for into Options — a metrics
// registry (Options.Metrics when set) behind -debug-addr, -stats-interval or
// -record, the debug server, the reporter, the flight log, the span log, the
// socket counters — and returns the function that stops and seals them,
// which the caller defers. On an error Open has closed what it opened.
func (c *Command) Open() (closeAll func(), err error) {
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
	opts := &c.Options
	if c.ioStats {
		opts.IOCounters = &c.io
	}
	if opts.Metrics == nil && (c.debugAddr != "" || c.statsInterval > 0 || c.record != "") {
		opts.Metrics = fobs.NewMetrics()
	}
	if c.debugAddr != "" {
		dbg, err := fobs.ServeMetricsDebug(c.debugAddr, opts.Metrics)
		if err != nil {
			return nil, fmt.Errorf("debug server: %w", err)
		}
		closers = append(closers, func() { dbg.Close() })
		fmt.Printf("%s: metrics at http://%s/debug/fobs\n", c.name, dbg.Addr())
	}
	if c.statsInterval > 0 {
		closers = append(closers, opts.Metrics.StartReporter(os.Stderr, c.statsInterval))
	}
	if c.record != "" {
		rec, err := fobs.CreateFlightLog(c.record)
		if err != nil {
			return nil, err
		}
		opts.Record = rec
		closers = append(closers, func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: sealing %s: %v\n", c.name, c.record, err)
				return
			}
			fmt.Printf("%s: flight recording sealed in %s\n", c.name, c.record)
		})
	}
	if c.events != "" {
		tlog, err := fobs.CreateTraceLog(c.events)
		if err != nil {
			return nil, err
		}
		opts.Trace = tlog
		closers = append(closers, func() { tlog.Close() })
	}
	return closeAll, nil
}

// ObjectSize is the byte count -size names: a number, optionally suffixed
// KiB, MiB, GiB (powers of two) or KB, MB, GB (powers of ten).
func ObjectSize(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	for suffix, m := range map[string]int64{
		"KIB": 1 << 10, "MIB": 1 << 20, "GIB": 1 << 30,
		"KB": 1e3, "MB": 1e6, "GB": 1e9,
	} {
		if strings.HasSuffix(upper, suffix) {
			upper = strings.TrimSuffix(upper, suffix)
			mult = m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return n * mult, nil
}

// PrintIO prints the transfer's socket counters when -io-stats asked for
// them.
func (c *Command) PrintIO() {
	if c.ioStats {
		fmt.Printf("%s: io %s\n", c.name, c.io.String())
	}
}

// NoteReadBuffer says so when the kernel granted a receiving endpoint less
// receive buffer than it asked for: senders are held to what was granted.
func (c *Command) NoteReadBuffer(granted, requested int) {
	if granted > 0 && granted < requested {
		fmt.Printf("%s: the kernel granted %d of the %d-byte receive buffer asked for; senders will be held to it (raise net.core.rmem_max for more)\n",
			c.name, granted, requested)
	}
}

// Context is the command's run context: it ends after -timeout or at SIGINT
// or SIGTERM, so a transfer aborts cleanly and the command's defers still
// run.
func (c *Command) Context() (context.Context, func()) {
	ctx, cancel := context.WithTimeout(context.Background(), c.Timeout)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	return ctx, func() { stop(); cancel() }
}
