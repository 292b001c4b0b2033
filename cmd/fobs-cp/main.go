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
	"fmt"
	"log"
	"os"
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
	c := cli.Parse(cli.Copy, os.Args[1:])
	ctx, cancel := c.Context()
	defer cancel()

	// The registry is always on: an aborted copy reports how far each
	// in-flight file got from its per-transfer counters.
	reg := fobs.NewMetrics()
	c.Options.Metrics = reg
	closeInstruments, err := c.Open()
	if err != nil {
		return err
	}
	defer closeInstruments()

	switch {
	case c.Send != "" && c.Recv != "":
		return errors.New("use either -send or -recv, not both")
	case c.Send != "":
		sum, err := fobs.SendTree(ctx, c.Addr, c.Send, c.Config, c.Options)
		if err != nil {
			reportPartials(reg)
			return err
		}
		fmt.Printf("fobs-cp: sent %d files, %d bytes in %v (%.1f Mb/s)\n",
			sum.Files, sum.Bytes, sum.Elapsed.Round(time.Millisecond), sum.Goodput()/1e6)
	case c.Recv != "":
		sl, err := fobs.ListenSession(c.Listen, c.Options)
		if err != nil {
			return err
		}
		defer sl.Close()
		fmt.Printf("fobs-cp: listening on %s\n", sl.Addr())
		c.NoteReadBuffer(sl.ReadBuffer())
		sum, err := fobs.ReceiveTree(ctx, sl, c.Recv)
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
