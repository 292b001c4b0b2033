package udprt

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
)

// benchBatch is the vector length the benchmarks drive: long enough that
// one syscall amortizes over a meaningful batch on both endpoints. The
// protocol's own batch policy is set to match, since the paper's tuned
// FixedBatch(2) never hands the socket layer more than two datagrams.
const benchBatch = 64

// benchEachPath runs the benchmark once per socket path, as like-named
// sub-benchmarks a fast-vs-scalar ratio can be read from. (The recorded
// counterparts are the batchio.* rows of the ledger, benchmark/run.sh.)
func benchEachPath(b *testing.B, fn func(b *testing.B, noFastPath bool)) {
	b.Run("fast", func(b *testing.B) {
		if !FastPathAvailable() {
			b.Skip("vectored fast path not available in this build")
		}
		fn(b, false)
	})
	b.Run("scalar", func(b *testing.B) { fn(b, true) })
}

// BenchmarkBatchFlush measures the sender's per-batch hot path in
// isolation: pull benchBatch packets from the schedule, encode into the
// ring, flush to the socket. The fast path pays one sendmmsg per
// iteration, the scalar path one write per packet. Excess datagrams are
// dropped by the unread peer socket, which on loopback costs the sender
// nothing extra.
func BenchmarkBatchFlush(b *testing.B) {
	benchEachPath(b, func(b *testing.B, noFastPath bool) {
		conn, _ := udpPair(b)
		const packetSize = 1024
		snd := core.NewSender(makeObj(4<<20), core.Config{PacketSize: packetSize})
		tx, err := batchio.NewSender(conn, benchBatch, !noFastPath)
		if err != nil {
			b.Fatal(err)
		}
		ring := newSendRing(benchBatch)
		b.SetBytes(benchBatch * packetSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := encodeBatch(snd, ring, benchBatch, probe{}, 0)
			if _, err := ring.send(tx, k); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "pkts/s")
	})
}

// BenchmarkRecordingOverhead measures the sender's per-batch hot path with
// the flight recorder off and on, writing a real .fobrec file in the
// recorded case. This is the encode-and-flush loop alone; what recording
// costs a whole transfer is the ledger row flight.overhead_pct
// (bash benchmark/run.sh -workload bulk_1k -trace 1).
func BenchmarkRecordingOverhead(b *testing.B) {
	run := func(b *testing.B, fr *flight.Recorder) {
		conn, _ := udpPair(b)
		const packetSize = 1024
		snd := core.NewSender(makeObj(4<<20), core.Config{PacketSize: packetSize})
		tx, err := batchio.NewSender(conn, benchBatch, FastPathAvailable())
		if err != nil {
			b.Fatal(err)
		}
		ring := newSendRing(benchBatch)
		b.SetBytes(benchBatch * packetSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := encodeBatch(snd, ring, benchBatch, probe{fr: fr}, 0)
			if _, err := ring.send(tx, k); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "pkts/s")
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("recorded", func(b *testing.B) {
		log, err := flight.Create(filepath.Join(b.TempDir(), "bench.fobrec"))
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		run(b, log.StartSender(0, (4<<20)/1024, 4<<20, 1024, 0))
	})
}

// BenchmarkSocketPump measures the socket layer with both endpoints
// engaged — a flooding batched sender and a draining batched receiver —
// which is where the fast path's syscall amortization pays on both sides
// of the loopback hop. One iteration is one received datagram.
func BenchmarkSocketPump(b *testing.B) {
	if testing.Short() {
		b.Skip("real-socket benchmark skipped in -short mode")
	}
	benchEachPath(b, func(b *testing.B, noFastPath bool) {
		snd, peer := udpPair(b)
		tx, err := batchio.NewSender(snd, benchBatch, !noFastPath)
		if err != nil {
			b.Fatal(err)
		}
		rx, err := batchio.NewReceiver(peer, benchBatch, 2048, !noFastPath)
		if err != nil {
			b.Fatal(err)
		}
		pkts := make([][]byte, benchBatch)
		for i := range pkts {
			pkts[i] = make([]byte, 1024)
		}
		stop := make(chan struct{})
		flooded := make(chan struct{})
		go func() {
			defer close(flooded)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx.Send(pkts)
			}
		}()
		defer func() { close(stop); <-flooded }()
		b.SetBytes(1024)
		b.ResetTimer()
		got := 0
		for got < b.N {
			peer.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := rx.Recv()
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
		b.StopTimer()
		b.ReportMetric(float64(got)/b.Elapsed().Seconds(), "pkts/s")
	})
}

// BenchmarkStripedLoopback is the 1-vs-N striping comparison on loopback:
// the same object end to end through the real runtime with 1, 2 and 4
// parallel stripes. On an uncontended loopback path one greedy flow
// already fills the pipe, so the number to watch is how little striping
// costs — the real-network cross-check for the simulated parallel-sockets
// curve (experiments.StripedFOBS).
func BenchmarkStripedLoopback(b *testing.B) {
	if testing.Short() {
		b.Skip("real-socket benchmark skipped in -short mode")
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("streams=%d", n), func(b *testing.B) {
			obj := makeObj(8 << 20)
			opts := Options{ioBatch: benchBatch, Streams: n}
			cfg := core.Config{PacketSize: 8192, Batch: core.FixedBatch(benchBatch)}
			b.SetBytes(int64(len(obj)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(b, obj, cfg, opts, opts)
			}
		})
	}
}

// BenchmarkCCPolicies moves the same object end to end once per congestion
// policy, for a per-policy throughput number to put next to the waste
// curves in EXPERIMENTS.md. On an uncontended loopback path the
// fixed (greedy) policy is the ceiling; what the adaptive policies give up
// here is the price of their friendliness, not a regression — the numbers
// are reported, not gated.
func BenchmarkCCPolicies(b *testing.B) {
	if testing.Short() {
		b.Skip("real-socket benchmark skipped in -short mode")
	}
	for _, policy := range CongestionPolicies() {
		b.Run("cc="+policy, func(b *testing.B) {
			obj := makeObj(8 << 20)
			opts := Options{ioBatch: benchBatch, Congestion: policy}
			// The large packet size keeps sabul's bits-per-second probing
			// from turning a loopback benchmark into a rate-limit test.
			cfg := core.Config{PacketSize: 8192, Batch: core.FixedBatch(benchBatch)}
			b.SetBytes(int64(len(obj)))
			b.ResetTimer()
			packets := 0
			for i := 0; i < b.N; i++ {
				packets += push(b, obj, cfg, opts, opts).sst.PacketsNeeded
			}
			b.StopTimer()
			b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkLoopbackTransfer moves a whole object through the real runtime
// on loopback — handshake, batched data, acks, completion — once per
// iteration. This is the end-to-end number the fast path must move: the
// acceptance bar is ≥1.5x packets/sec over the scalar path.
func BenchmarkLoopbackTransfer(b *testing.B) {
	if testing.Short() {
		b.Skip("real-socket benchmark skipped in -short mode")
	}
	benchEachPath(b, func(b *testing.B, noFastPath bool) {
		obj := makeObj(8 << 20)
		opts := Options{NoFastPath: noFastPath, ioBatch: benchBatch}
		cfg := core.Config{Batch: core.FixedBatch(benchBatch)}
		b.SetBytes(int64(len(obj)))
		b.ResetTimer()
		packets := 0
		for i := 0; i < b.N; i++ {
			// Count delivered packets, not sends: the scalar path wastes
			// heavily on retransmissions at this batch size, and the
			// interesting rate is useful packets through the pipe.
			packets += push(b, obj, cfg, opts, opts).sst.PacketsNeeded
		}
		b.StopTimer()
		b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/s")
	})
}

// BenchmarkVerifyOverhead measures the sender's per-batch hot path with
// content identity off and on — the same pairing scheme as the flight
// recorder's. The
// design's contract is that digesting happens once, at object load, when
// the CHECK frame is built — never per packet — so the verify variant
// pays its whole SHA-256 before the timed loop and the per-packet rates
// must be indistinguishable. The once-per-transfer hash CPU cost is
// reported separately as a metric (and in EXPERIMENTS.md), not buried in
// the packet rate.
func BenchmarkVerifyOverhead(b *testing.B) {
	run := func(b *testing.B, verify bool) {
		conn, _ := udpPair(b)
		const packetSize = 1024
		const objSize = 4 << 20
		snd := core.NewSender(makeObj(objSize), core.Config{PacketSize: packetSize})
		var hashDur time.Duration
		if verify {
			// Hash at object load — where announcement computes it. The
			// memoized digest is what the CHECK carries; nothing
			// below touches it again.
			hashStart := time.Now()
			snd.ContentID()
			hashDur = time.Since(hashStart)
		}
		tx, err := batchio.NewSender(conn, benchBatch, FastPathAvailable())
		if err != nil {
			b.Fatal(err)
		}
		ring := newSendRing(benchBatch)
		b.SetBytes(benchBatch * packetSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := encodeBatch(snd, ring, benchBatch, probe{}, 0)
			if _, err := ring.send(tx, k); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "pkts/s")
		if verify {
			b.ReportMetric(hashDur.Seconds()*1e9*1024/objSize, "hash-ns/KiB")
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("verify", func(b *testing.B) { run(b, true) })
}

// BenchmarkDedupSecondPush measures the repeated-push economy the
// digest-first handshake buys: one listener already holds the object in
// its content cache, so every timed Send is answered from the cache — a
// dial plus one control round trip, zero data packets. Compare ns/op
// against BenchmarkLoopbackTransfer's to see what a cache hit saves;
// bytes/op counts the object bytes that did NOT move.
func BenchmarkDedupSecondPush(b *testing.B) {
	if testing.Short() {
		b.Skip("real-socket benchmark skipped in -short mode")
	}
	obj := makeObj(8 << 20)
	opts := Options{ioBatch: benchBatch}
	cfg := core.Config{Batch: core.FixedBatch(benchBatch)}
	ep := listen(b, byAccept, opts)
	ep.recv(1 + b.N)
	if st, err := Send(ep.ctx, ep.l.Addr(), obj, cfg, opts); err != nil || st.Deduped {
		b.Fatalf("seed push: err=%v deduped=%v", err, st.Deduped)
	}
	b.SetBytes(int64(len(obj)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Send(ep.ctx, ep.l.Addr(), obj, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Deduped || st.PacketsSent != 0 {
			b.Fatalf("push %d was not a cache hit: %+v", i, st)
		}
		for len(ep.got) > 0 {
			<-ep.got // the delivered copies: drop them as they come
		}
	}
}
