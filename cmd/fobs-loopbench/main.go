// Command fobs-loopbench measures the real-socket FOBS runtime on
// loopback — throughput versus packet size, the real-world analogue of the
// paper's Figure 3 — and anchors it against this kernel's own TCP.
//
//	fobs-loopbench -size 32MiB
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/cmd/internal/cli"
)

// tcpBaseline moves obj over a kernel TCP connection on loopback and
// returns the elapsed time.
func tcpBaseline(obj []byte) (time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(io.Discard, conn)
		done <- err
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := conn.Write(obj); err != nil {
		conn.Close()
		return 0, err
	}
	conn.Close() // EOF lets the reader finish
	if err := <-done; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// fobsRun moves obj over the FOBS runtime on loopback with the given
// config and sender options, returning elapsed time and sender waste, within
// timeout. scalar forces one syscall per datagram on both endpoints. Both
// endpoints share opts' Metrics and Record (either may be nil) so the bench's
// transfers show up on the debug endpoint, in the periodic summaries, and in
// the flight recording.
func fobsRun(obj []byte, cfg fobs.Config, opts fobs.Options, scalar bool, timeout time.Duration) (time.Duration, float64, error) {
	opts.NoFastPath = scalar
	l, err := fobs.Listen("127.0.0.1:0", fobs.Options{NoFastPath: scalar, Metrics: opts.Metrics, Record: opts.Record})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := l.Accept(ctx)
		done <- err
	}()
	start := time.Now()
	st, err := fobs.Send(ctx, l.Addr(), obj, cfg, opts)
	if err != nil {
		return 0, 0, err
	}
	if err := <-done; err != nil {
		return 0, 0, err
	}
	return time.Since(start), st.Waste(), nil
}

func main() {
	if err := run(); err != nil {
		log.Fatalf("fobs-loopbench: %v", err)
	}
}

func run() error {
	c := cli.Parse(cli.Loopbench, os.Args[1:])
	size, err := cli.ObjectSize(c.Size)
	if err != nil {
		return err
	}
	closeInstruments, err := c.Open()
	if err != nil {
		return err
	}
	defer closeInstruments()

	obj := make([]byte, size)
	for i := range obj {
		obj[i] = byte(i * 31)
	}
	mbps := func(elapsed time.Duration) float64 { return float64(size*8) / elapsed.Seconds() / 1e6 }
	// bench moves obj once with cfg, over streams stripes under policy cc,
	// the rest of the sender's options as the flags set them.
	bench := func(cfg fobs.Config, streams int, cc string, scalar bool) (time.Duration, float64, error) {
		opts := c.Options
		opts.Streams, opts.Congestion = streams, cc
		return fobsRun(obj, cfg, opts, scalar, c.Timeout)
	}

	if elapsed, err := tcpBaseline(obj); err != nil {
		return fmt.Errorf("tcp baseline: %w", err)
	} else {
		fmt.Printf("%-22s %8.1f Mb/s\n", "kernel tcp (loopback)", mbps(elapsed))
	}

	for _, ps := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
		elapsed, waste, err := bench(fobs.Config{PacketSize: ps}, c.Options.Streams, c.Options.Congestion, false)
		if err != nil {
			return fmt.Errorf("fobs ps=%d: %w", ps, err)
		}
		fmt.Printf("fobs packet=%-6d      %8.1f Mb/s   waste %.1f%%\n", ps, mbps(elapsed), 100*waste)
	}

	// Striped parallel flows: the real-network counterpart of the paper's
	// parallel-sockets baseline. On an uncontended loopback path one
	// greedy FOBS flow already fills the pipe, so the interesting output
	// is how little striping costs (or gains) — compare with the
	// simulated curve from fobs-bench's striping sweep.
	fmt.Println()
	for _, n := range []int{1, 2, 4} {
		elapsed, waste, err := bench(fobs.Config{PacketSize: 8192}, n, c.Options.Congestion, false)
		if err != nil {
			return fmt.Errorf("fobs streams=%d: %w", n, err)
		}
		fmt.Printf("fobs streams=%-2d packet=8192 %8.1f Mb/s   waste %.1f%%\n", n, mbps(elapsed), 100*waste)
	}

	// Congestion policies side by side on the same path. Loopback is
	// uncontended, so fixed (the paper's greedy sender) is the ceiling and
	// the gap below it is what each adaptive policy trades for
	// TCP-friendliness — run the policies over a lossy path (see
	// TestCongestionWasteSweep) for the other half of the story.
	fmt.Println()
	for _, policy := range fobs.CongestionPolicies() {
		elapsed, waste, err := bench(fobs.Config{PacketSize: 8192}, 1, policy, false)
		if err != nil {
			return fmt.Errorf("fobs cc=%s: %w", policy, err)
		}
		fmt.Printf("fobs cc=%-6s packet=8192 %8.1f Mb/s   waste %.1f%%\n", policy, mbps(elapsed), 100*waste)
	}

	// Fast path versus scalar with a batch worth vectoring: the paper's
	// tuned FixedBatch(2) never hands the socket layer more than two
	// datagrams, so the comparison runs a deep batch at a small packet
	// size, where per-datagram syscall cost dominates.
	if fobs.FastPathAvailable() {
		cfg := fobs.Config{PacketSize: 1024, Batch: fobs.FixedBatch(64)}
		fast, _, err := bench(cfg, 1, c.Options.Congestion, false)
		if err != nil {
			return fmt.Errorf("fast path: %w", err)
		}
		scalar, _, err := bench(cfg, 1, c.Options.Congestion, true)
		if err != nil {
			return fmt.Errorf("scalar path: %w", err)
		}
		fmt.Printf("\nfast path vs scalar (packet=%d, batch=64): %8.1f vs %8.1f Mb/s (%.2fx)\n",
			cfg.PacketSize, mbps(fast), mbps(scalar), scalar.Seconds()/fast.Seconds())
	}

	fmt.Println("\nLarger packets amortize per-datagram syscall cost — the same")
	fmt.Println("endpoint-bound shape as the paper's Figure 3, on real sockets.")
	return nil
}
