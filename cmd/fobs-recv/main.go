// Command fobs-recv receives one FOBS object transfer over real sockets
// and writes it to a file (or discards it, reporting throughput only).
//
// Usage:
//
//	fobs-recv -listen 0.0.0.0:7700 -out object.bin
//	fobs-recv -listen 0.0.0.0:7700 -record run.fobrec
//
// Pair it with fobs-send on the other end. SIGINT/SIGTERM abort cleanly:
// the flight recording is flushed and sealed before exit.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/cmd/internal/cli"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("fobs-recv: %v", err)
	}
}

// reportPartial summarizes an interrupted transfer: how much of the object
// is held, what fraction that is, and why the transfer ended (the error
// carries the abort reason when the peer sent one).
func reportPartial(st fobs.ReceiverStats, err error) {
	if st.PacketsNeeded == 0 {
		fmt.Fprintf(os.Stderr, "fobs-recv: transfer failed before any data: %v\n", err)
		return
	}
	pct := 100 * float64(st.Received) / float64(st.PacketsNeeded)
	fmt.Fprintf(os.Stderr, "fobs-recv: partial transfer: %d/%d packets held (%.1f%% complete): %v\n",
		st.Received, st.PacketsNeeded, pct, err)
}

// run carries the whole session so its defers — sealing the flight
// recording, stopping the reporter with a final line — execute on every
// exit path, including a SIGINT/SIGTERM abort.
func run() error {
	c := cli.Parse(cli.Recv, os.Args[1:])
	closeInstruments, err := c.Open()
	if err != nil {
		return err
	}
	defer closeInstruments()
	l, err := fobs.Listen(c.Listen, c.Options)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("fobs-recv: listening on %s\n", l.Addr())
	c.NoteReadBuffer(l.ReadBuffer())

	ctx, cancel := c.Context()
	defer cancel()

	// Accept until one transfer completes: an interrupted attempt parks its
	// partial state in the resume window (and checkpoint directory, when
	// configured), and the sender's supervisor reconnects with an
	// announcement of the same content that picks it up — so a failed
	// Accept here means "listen again", not
	// "give up", until the deadline or an interrupt ends the wait.
	var obj []byte
	var st fobs.ReceiverStats
	for {
		var err error
		obj, st, err = l.Accept(ctx)
		if err == nil {
			break
		}
		reportPartial(st, err)
		if ctx.Err() != nil {
			return err
		}
		fmt.Printf("fobs-recv: listening again on %s\n", l.Addr())
	}
	// Timed from the announcement, not from the wait for a sender to dial.
	elapsed := st.Elapsed
	mbps := float64(len(obj)*8) / elapsed.Seconds() / 1e6
	fmt.Printf("fobs-recv: %d bytes in %v (%.1f Mb/s), %d packets (%d duplicates)\n",
		len(obj), elapsed.Round(time.Millisecond), mbps, st.Received, st.Duplicates)
	c.PrintIO()

	if c.Out != "" {
		if err := os.WriteFile(c.Out, obj, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", c.Out, err)
		}
		fmt.Printf("fobs-recv: wrote %s\n", c.Out)
	}
	return nil
}
