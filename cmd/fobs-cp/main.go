// Command fobs-cp copies a directory tree between machines over FOBS —
// the bulk-data-movement workload the paper's introduction motivates.
//
// Receiver:
//
//	fobs-cp -recv /data/incoming -listen 0.0.0.0:7700
//
// Sender:
//
//	fobs-cp -send /data/outgoing -addr host:7700
//
// SIGINT/SIGTERM abort the copy cleanly: any -record flight recording is
// flushed and sealed before exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/cmd/internal/cli"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("fobs-cp: %v", err)
	}
}

// reportPartials summarizes every transfer the aborted copy left
// incomplete: how many packets each held, what fraction of its object that
// is, and the abort reason when the peer sent one.
func reportPartials(reg *fobs.Metrics) {
	for _, tr := range reg.Snapshot().Transfers {
		if tr.Outcome == fobs.OutcomeCompleted || tr.PacketsNeeded == 0 {
			continue
		}
		held := tr.Fresh + tr.PacketsRestored
		if tr.Role == fobs.RoleSender {
			held = tr.KnownReceived
		}
		pct := 100 * float64(held) / float64(tr.PacketsNeeded)
		line := fmt.Sprintf("fobs-cp: partial transfer %08x (%s): %d/%d packets (%.1f%% complete)",
			tr.Transfer, tr.Role, held, tr.PacketsNeeded, pct)
		if tr.Outcome == fobs.OutcomeAborted && tr.AbortReason != 0 {
			line += fmt.Sprintf(", abort reason %d", tr.AbortReason)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// run carries the whole copy so its defers — sealing the flight recording,
// stopping the reporter with a final line — execute on every exit path,
// including a SIGINT/SIGTERM abort.
func run() error {
	var (
		send       = flag.String("send", "", "directory tree to send")
		recv       = flag.String("recv", "", "directory to receive into")
		addr       = flag.String("addr", "127.0.0.1:7700", "receiver address (with -send)")
		listen     = flag.String("listen", "127.0.0.1:7700", "address to listen on (with -recv)")
		packetSize = flag.Int("packet-size", fobs.PacketSize, "data packet payload bytes")
		checksum   = flag.Bool("checksum", true, "CRC-32C every data packet in addition to per-file checksums")
		pace       = flag.Duration("pace", 0, "per-packet pacing delay (loopback/LAN tuning)")
		cc         = flag.String("cc", fobs.CCFixed,
			fmt.Sprintf("congestion control policy (%s; with -send)", strings.Join(fobs.CongestionPolicies(), ", ")))
		streams = flag.Int("streams", 1,
			fmt.Sprintf("parallel stripes per file, each its own UDP flow (1..%d; with -send)", fobs.MaxStreams))
		timeout = flag.Duration("timeout", time.Hour, "give up after this long")
		noDedup = flag.Bool("no-dedup", false,
			"do not let the receiver answer from its content cache; always move every file's bytes (with -send)")

		resumeWindow = flag.Duration("resume-window", 0,
			"retain interrupted transfers this long so a sender of the same content sends only what is missing (0: default 60s, negative: disabled; with -recv)")
		checkpointDir = flag.String("checkpoint", "",
			"directory for resume checkpoints; interrupted transfers survive a restart of this process (with -recv)")

		instruments = cli.Flags("fobs-cp", false)
	)
	flag.Parse()

	ctx, cancel := cli.Context(*timeout)
	defer cancel()

	cfg := fobs.Config{PacketSize: *packetSize, Checksum: *checksum}
	opts := fobs.Options{
		Pace:         *pace,
		Congestion:   *cc,
		Streams:      *streams,
		ResumeWindow: *resumeWindow,
		Checkpoint:   *checkpointDir,
		NoDedup:      *noDedup,
	}
	// The registry is always on: an aborted copy reports how far each
	// in-flight file got from its per-transfer counters.
	reg := fobs.NewMetrics()
	opts.Metrics = reg
	closeInstruments, err := instruments.Open(&opts)
	if err != nil {
		return err
	}
	defer closeInstruments()

	switch {
	case *send != "" && *recv != "":
		return errors.New("use either -send or -recv, not both")
	case *send != "":
		sum, err := fobs.SendTree(ctx, *addr, *send, cfg, opts)
		if err != nil {
			reportPartials(reg)
			return err
		}
		fmt.Printf("fobs-cp: sent %d files, %d bytes in %v (%.1f Mb/s)\n",
			sum.Files, sum.Bytes, sum.Elapsed.Round(time.Millisecond), sum.Goodput()/1e6)
	case *recv != "":
		sl, err := fobs.ListenSession(*listen, opts)
		if err != nil {
			return err
		}
		defer sl.Close()
		fmt.Printf("fobs-cp: listening on %s\n", sl.Addr())
		if got, want := sl.ReadBuffer(); got > 0 && got < want {
			fmt.Printf("fobs-cp: the kernel granted %d of the %d-byte receive buffer asked for; senders will be held to it (raise net.core.rmem_max for more)\n", got, want)
		}
		sum, err := fobs.ReceiveTree(ctx, sl, *recv)
		if err != nil {
			reportPartials(reg)
			return err
		}
		fmt.Printf("fobs-cp: received %d files, %d bytes in %v (%.1f Mb/s)\n",
			sum.Files, sum.Bytes, sum.Elapsed.Round(time.Millisecond), sum.Goodput()/1e6)
	default:
		return errors.New("pass -send DIR or -recv DIR")
	}
	return nil
}
