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
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/cmd/internal/cli"
)

func parseSize(s string) (int64, error) {
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

func main() {
	if err := run(); err != nil {
		log.Fatalf("fobs-send: %v", err)
	}
}

// run carries the whole transfer so its defers — sealing the flight
// recording, stopping the reporter with a final line — execute on every
// exit path, including a SIGINT/SIGTERM abort.
func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7700", "fobs-recv address")
		file       = flag.String("file", "", "file to send (overrides -size)")
		size       = flag.String("size", "40MiB", "synthetic object size when no -file is given")
		packetSize = flag.Int("packet-size", fobs.PacketSize, "data packet payload bytes")
		ackFreq    = flag.Int("ack-freq", fobs.DefaultAckFrequency, "receiver ack frequency hint (informational)")
		batch      = flag.Int("batch", fobs.DefaultBatch, "packets per batch-send operation")
		pace       = flag.Duration("pace", 0, "extra delay per batch (helps tiny kernel buffers)")
		cc         = flag.String("cc", fobs.CCFixed,
			fmt.Sprintf("congestion control policy (%s)", strings.Join(fobs.CongestionPolicies(), ", ")))
		streams = flag.Int("streams", 1,
			fmt.Sprintf("parallel stripes, each its own UDP flow (1..%d)", fobs.MaxStreams))
		progress = flag.Bool("progress", false, "print transfer progress")
		timeout  = flag.Duration("timeout", 10*time.Minute, "give up after this long")

		retries = flag.Int("retries", 0,
			"re-dial a failed transfer up to this many times with exponential backoff (0: no retries)")
		retryBackoff = flag.Duration("retry-backoff", 0,
			"delay before the first retry, doubling each attempt (0: default 500ms; needs -retries)")
		noDedup = flag.Bool("no-dedup", false,
			"do not let the receiver answer from its content cache; move the bytes even if it holds them")

		stallTimeout = flag.Duration("stall-timeout", 0,
			"abort when no acknowledgement arrives for this long (0: default 15s, negative: disabled)")
		handshakeTimeout = flag.Duration("handshake-timeout", 0,
			"bound on each announcement/HAVE exchange (0: default 10s)")

		ioBatch = flag.Int("io-batch", 0,
			fmt.Sprintf("datagrams per sendmmsg/recvmmsg vector (0: default %d)", fobs.DefaultIOBatch))
		noFastPath = flag.Bool("no-fastpath", false,
			"force one syscall per datagram even where sendmmsg is available")

		instruments = cli.Flags("fobs-send", true)
	)
	flag.Parse()

	var obj []byte
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		obj = data
	} else {
		n, err := parseSize(*size)
		if err != nil {
			return err
		}
		obj = make([]byte, n)
		rand.New(rand.NewSource(time.Now().UnixNano())).Read(obj)
	}

	cfg := fobs.Config{
		PacketSize:   *packetSize,
		AckFrequency: *ackFreq,
		Batch:        fobs.FixedBatch(*batch),
	}
	ctx, cancel := cli.Context(*timeout)
	defer cancel()

	opts := fobs.Options{
		Pace:             *pace,
		Congestion:       *cc,
		Streams:          *streams,
		StallTimeout:     *stallTimeout,
		HandshakeTimeout: *handshakeTimeout,
		IOBatch:          *ioBatch,
		NoFastPath:       *noFastPath,
		NoDedup:          *noDedup,
	}
	if *retries > 0 {
		opts.Retry = &fobs.RetryPolicy{
			MaxRetries: *retries,
			Backoff:    *retryBackoff,
		}
	}
	closeInstruments, err := instruments.Open(&opts)
	if err != nil {
		return err
	}
	defer closeInstruments()
	if *progress {
		lastPct := -1
		opts.Progress = func(done, total int) {
			if pct := 100 * done / total; pct/5 != lastPct/5 {
				lastPct = pct
				fmt.Printf("fobs-send: %3d%% (%d/%d packets confirmed)\n", pct, done, total)
			}
		}
	}
	start := time.Now()
	st, err := fobs.Send(ctx, *addr, obj, cfg, opts)
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
	instruments.PrintIO()
	if err != nil {
		return err
	}
	mbps := float64(len(obj)*8) / elapsed.Seconds() / 1e6
	fmt.Printf("fobs-send: %d bytes in %v (%.1f Mb/s)\n", len(obj), elapsed.Round(time.Millisecond), mbps)
	return nil
}
