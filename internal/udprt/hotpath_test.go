package udprt

import (
	"io"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
)

// eachInstrumentation runs fn with instrumentation off (nil handles, the
// zero-configuration default), with live metrics, with metrics plus a
// flight recording, and with every layer plus a span recorder, so every
// hot-path allocation gate also proves all three instrumentation layers
// allocation-free.
func eachInstrumentation(t *testing.T, role obs.Role, packets int, fn func(t *testing.T, tm *metrics.Transfer, fr *flight.Recorder, or *obs.Recorder)) {
	t.Run("bare", func(t *testing.T) { fn(t, nil, nil, nil) })
	startTM := func() *metrics.Transfer {
		reg := metrics.New()
		if role == obs.RoleSender {
			return reg.StartSender(0, packets, int64(packets)*1024)
		}
		return reg.StartReceiver(0, packets, int64(packets)*1024)
	}
	startFR := func(log *flight.Log) *flight.Recorder {
		if role == obs.RoleSender {
			return log.StartSender(0, packets, int64(packets)*1024, 1024, 0)
		}
		return log.StartReceiver(0, packets, int64(packets)*1024, 1024)
	}
	t.Run("metrics", func(t *testing.T) { fn(t, startTM(), nil, nil) })
	t.Run("recorded", func(t *testing.T) {
		log := flight.NewLog(io.Discard)
		defer log.Close()
		fn(t, startTM(), startFR(log), nil)
	})
	t.Run("traced", func(t *testing.T) {
		log := flight.NewLog(io.Discard)
		defer log.Close()
		span := obs.NewLog(io.Discard)
		defer span.Close()
		fn(t, startTM(), startFR(log), span.Start(obs.NewTraceID(), 0, role))
	})
}

// TestSenderHotPathZeroAllocs measures the sender's steady-state per-batch
// work — ask the sender what the look may send (which resolves the
// round-trip probe and runs the flow account), have it plan the round under
// its congestion controller (the call that also reports the last round's
// loss classification), pull packets from the schedule, note them in the
// metrics, encode into the ring, flush, charge the pacing clock — through the
// calls the sender engine makes, and requires zero allocations on both socket
// paths, with and without metrics, under every congestion policy in the
// table, bare and slowed by both Options.Pace and a RateCap.
func TestSenderHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	capped, _ := NewRateCap(1e12) // generous: the cap runs, nothing starves
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		for _, policy := range CongestionPolicies() {
			for _, slowed := range []bool{false, true} {
				name, opts := "cc="+policy, Options{Congestion: policy}
				if slowed {
					name += "/paced+capped"
					opts.Pace, opts.RateCap = time.Microsecond, capped
				}
				t.Run(name, func(t *testing.T) {
					eachInstrumentation(t, obs.RoleSender, 1<<20/1024, func(t *testing.T, tm *metrics.Transfer, fr *flight.Recorder, or *obs.Recorder) {
						conn, rcv := udpPair(t)
						stop := make(chan struct{})
						drained := make(chan struct{})
						go func() { // keep the socket writable; its allocs are not measured
							defer close(drained)
							buf := make([]byte, 2048)
							for {
								select {
								case <-stop:
									return
								default:
								}
								rcv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
								rcv.Read(buf)
							}
						}()
						defer func() { close(stop); <-drained }()

						plan, err := newSenderPlan(makeObj(1<<20),
							core.Config{PacketSize: 1024, Batch: core.FixedBatch(16)}, opts)
						if err != nil {
							t.Fatal(err)
						}
						snd := plan.snds[0]
						snd.SetFlow(1<<20, time.Millisecond) // as runSenderPlan installs it
						tx, err := batchio.NewSender(conn, 16, !noFastPath)
						if err != nil {
							t.Fatal(err)
						}
						ring := newSendRing(16)
						// With no acks the circular schedule supplies
						// retransmissions forever, so every run encodes and
						// flushes a controller-planned batch. The loss feedback
						// runs live (a no-ack run is all retransmissions), so
						// window policies are measured at their smallest batch
						// too.
						started := time.Now()
						var clock pacer
						if allocs := testing.AllocsPerRun(300, func() {
							now := time.Since(started)
							snd.Look(now, ring.len())
							batch, gapPer := snd.PlanRound(now)
							if gapPer < 0 {
								t.Fatal("negative pacing gap")
							}
							k := encodeBatch(snd, ring, batch, probe{tm: tm, fr: fr}, 0)
							if k != batch {
								t.Fatalf("encodeBatch = %d, want %d", k, batch)
							}
							if _, err := ring.send(tx, k); err != nil {
								t.Fatalf("Send: %v", err)
							}
							clock.charge(time.Now(), gapPer, k)
						}); allocs > 0 {
							t.Errorf("sender plan+encode+flush+pace allocates %.1f times per batch, want 0", allocs)
						}
						if tm != nil {
							s := tm.Snapshot()
							if s.PacketsSent == 0 || s.PacketsSent != s.PacketsNeeded+s.Retransmits {
								t.Errorf("metrics conservation: sent=%d needed=%d retx=%d",
									s.PacketsSent, s.PacketsNeeded, s.Retransmits)
							}
						}
					})
				})
			}
		}
	})
}

// TestReceiverHotPathZeroAllocs measures the receiver's steady-state
// per-wakeup work — drain the socket, decode each datagram, look its tag up,
// place it, classify it for the instruments, tell the sealer, serialize and
// send the acknowledgement — by calling the endpoint's own drain (the body of
// its loop, routing function included) on a registered transfer, and requires
// zero allocations on both socket paths, with and without each instrument,
// with and without a sealer attached.
func TestReceiverHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const packetSize, objSize = 1024, 2<<20 + 512 // three leaves: the sealer's worker runs
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		eachInstrumentation(t, obs.RoleReceiver, objSize/packetSize+1, func(t *testing.T, tm *metrics.Transfer, fr *flight.Recorder, or *obs.Recorder) {
			for _, sealed := range []bool{false, true} {
				feeder, udp := udpPair(t)
				ftx, err := batchio.NewSender(feeder, 8, !noFastPath)
				if err != nil {
					t.Fatal(err)
				}
				feed := newSendRing(8)
				rx, err := batchio.NewReceiver(udp, 8, maxDatagram, !noFastPath)
				if err != nil {
					t.Fatal(err)
				}
				// A Listener in every respect except that its loop is not
				// running: the test is the loop, one drain at a time.
				l := &Listener{udp: udp, rx: rx, inbound: make(map[uint32]tagRoute)}

				snd := core.NewSender(makeObj(objSize), core.Config{PacketSize: packetSize})
				plan := recvPlan{objectSize: objSize, packetSize: packetSize}
				in := l.register(plan)
				obj := make([]byte, objSize)
				engines := newRecvEngines(plan, obj)
				engines[0].probe = probe{tm: tm, fr: fr, or: or}
				if sealed {
					seal := plan.startSealer(obj, engines...)
					defer seal.abandon()
				}
				if sealed != (engines[0].seal != nil) {
					t.Fatalf("sealed=%v but the engine's sealer is %v", sealed, engines[0].seal)
				}
				in.arm(engines)

				// The feeding sends run in this goroutine too, but the sender
				// side is proven allocation-free by TestSenderHotPathZeroAllocs.
				// Unacknowledged, the circular schedule re-sends forever: the
				// runs cover fresh packets, the completing one and duplicates.
				if allocs := testing.AllocsPerRun(300, func() {
					k := encodeBatch(snd, feed, feed.len(), probe{}, 0)
					if _, err := feed.send(ftx, k); err != nil {
						t.Fatalf("feed: %v", err)
					}
					udp.SetReadDeadline(time.Now().Add(2 * time.Second))
					for before := l.io.RecvDatagrams; l.io.RecvDatagrams < before+k; {
						if err := l.drain(); err != nil {
							t.Fatalf("drain: %v", err)
						}
					}
				}); allocs > 0 {
					t.Errorf("sealed=%v: receiver drain+route+place+ack allocates %.1f times per wakeup, want 0", sealed, allocs)
				}
				l.detach(in)
				if st := engines[0].rcv.Stats(); st.Received == 0 || st.AcksBuilt == 0 || st.Rejected != 0 {
					t.Errorf("sealed=%v: the measured path did not place and acknowledge: %+v", sealed, st)
				}
			}
			if tm != nil {
				s := tm.Snapshot()
				if s.DataDemuxed == 0 || s.Fresh+s.Duplicates+s.Rejected != s.DataDemuxed {
					t.Errorf("metrics conservation: fresh=%d dup=%d rej=%d demux=%d",
						s.Fresh, s.Duplicates, s.Rejected, s.DataDemuxed)
				}
			}
		})
	})
}
