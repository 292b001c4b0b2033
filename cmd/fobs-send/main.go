// Command fobs-send transfers one object to a fobs-recv listener over real
// sockets.
//
// Usage:
//
//	fobs-send -addr host:7700 -file object.bin
//	fobs-send -addr host:7700 -size 40MiB        # synthetic object
//	fobs-send -addr host:7700 -streams 4         # stripe across 4 UDP flows
//	fobs-send -addr host:7700 -record run.fobrec # capture a flight recording
//
// SIGINT/SIGTERM abort the transfer cleanly: the flight recording is
// flushed and sealed and the final stats line still prints.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/cmd/internal/cli"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("fobs-send: %v", err)
	}
}

// run carries the whole transfer so its defers — sealing the flight
// recording, stopping the reporter with a final line — execute on every
// exit path, including a SIGINT/SIGTERM abort.
func run() error {
	c := cli.Parse(cli.Send, os.Args[1:])

	var obj []byte
	if c.File != "" {
		data, err := os.ReadFile(c.File)
		if err != nil {
			return err
		}
		obj = data
	} else {
		n, err := cli.ObjectSize(c.Size)
		if err != nil {
			return err
		}
		obj = make([]byte, n)
		rand.New(rand.NewSource(time.Now().UnixNano())).Read(obj)
	}

	ctx, cancel := c.Context()
	defer cancel()
	closeInstruments, err := c.Open()
	if err != nil {
		return err
	}
	defer closeInstruments()
	start := time.Now()
	st, err := fobs.Send(ctx, c.Addr, obj, c.Config, c.Options)
	elapsed := time.Since(start)
	// The stats line prints even on an aborted run: a partial transfer's
	// accounting (and its flight recording) is exactly what post-mortems
	// need.
	if st.Deduped {
		fmt.Printf("fobs-send: deduplicated: receiver already held the content; no data packets moved\n")
	} else {
		fmt.Printf("fobs-send: %d packets for %d needed (waste %.1f%%), %d acks processed in %v\n",
			st.PacketsSent, st.PacketsNeeded, 100*st.Waste(), st.AcksProcessed,
			elapsed.Round(time.Millisecond))
	}
	if st.Restored > 0 && !st.Deduped {
		fmt.Printf("fobs-send: resumed: %d of %d packets excused by the receiver's HAVE bitmap\n",
			st.Restored, st.PacketsNeeded)
	}
	c.PrintIO()
	if err != nil {
		return err
	}
	mbps := float64(len(obj)*8) / elapsed.Seconds() / 1e6
	fmt.Printf("fobs-send: %d bytes in %v (%.1f Mb/s)\n", len(obj), elapsed.Round(time.Millisecond), mbps)
	return nil
}
