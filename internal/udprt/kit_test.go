package udprt

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// TestAckFitsSenderSlot: the longest acknowledgement a receiver frames for a
// transfer decodes from a slot of the sender's ack ring, and a datagram one
// byte longer than the slot arrives cut short and is refused, never misread —
// on both socket paths, through kits the pool hands from row to row (a longer
// slot cut to this row's), for status maps of one word and of more than an ack
// carries, at the smallest, default and largest packet sizes, with the
// sender's AckPacketSize unset, below the packet size (which must not shrink
// the slot) and above it. The receiver frames into a buffer made to the same
// bound, which the longest ack fills exactly and never grows.
func TestAckFitsSenderSlot(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		snd, peer := udpPair(t)
		read := func(kit *senderKit) []byte {
			t.Helper()
			peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := kit.rx.Recv(); n != 1 || err != nil {
				t.Fatalf("Recv = %d, %v; want one datagram", n, err)
			}
			return kit.rx.Datagram(0)
		}
		for _, ps := range []int{64, 1024, 32 << 10} {
			payload := make([]byte, ps)
			for _, n := range []int{1, 63, 64, 65, 64*wire.MaxFragWords(ps) + 1} {
				rcv := core.NewReceiver(int64(n)*int64(ps), core.Config{PacketSize: ps, Discard: true})
				for seq := 0; seq < n; seq += 3 {
					rcv.HandleData(wire.Data{Seq: uint32(seq), Total: uint32(n), Payload: payload})
				}
				e := newReceiverEngine(rcv)
				a := rcv.BuildAck() // the first ack extracts from the map's start: the longest
				frame := wire.AppendAck(e.ackBuf[:0], &a)
				if len(frame) != cap(e.ackBuf) || cap(frame) != cap(e.ackBuf) {
					t.Fatalf("ps=%d n=%d: longest ack is %d bytes in a %d-byte buffer that became %d",
						ps, n, len(frame), cap(e.ackBuf), cap(frame))
				}
				for _, ackSize := range []int{0, ps / 2, 2 * ps} {
					slot := ackSlotLen(core.Config{PacketSize: ps, AckPacketSize: ackSize}, n)
					kit, err := getKit(peer, DefaultIOBatch, slot, !noFastPath)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := snd.Write(frame); err != nil {
						t.Fatal(err)
					}
					got, err := wire.DecodeAckInto(read(kit), nil)
					if err != nil || got.AckSeq != a.AckSeq || got.Frag.Start != a.Frag.Start ||
						!slices.Equal(got.Frag.Words, a.Frag.Words) {
						t.Fatalf("ps=%d n=%d AckPacketSize=%d: %d-byte ack from a %d-byte slot decoded as %+v, %v; want %+v",
							ps, n, ackSize, len(frame), slot, got, err, a)
					}
					words := (slot - wire.AckHeaderLen) / 8
					long := wire.AppendAck(nil, &wire.Ack{Frag: bitmap.Fragment{Words: make([]uint64, words+1)}})[:slot+1]
					if _, err := snd.Write(long); err != nil {
						t.Fatal(err)
					}
					if d := read(kit); len(d) != slot {
						t.Fatalf("ps=%d n=%d AckPacketSize=%d: a %d-byte datagram filled %d bytes of a %d-byte slot",
							ps, n, ackSize, len(long), len(d), slot)
					} else if _, err := wire.DecodeAckInto(d, nil); !errors.Is(err, wire.ErrShort) {
						t.Fatalf("ps=%d n=%d AckPacketSize=%d: a datagram one byte longer than the slot decoded with %v, want %v",
							ps, n, ackSize, err, wire.ErrShort)
					}
					kit.put()
				}
			}
		}
	})
}

// TestConcurrentSendsSharePooledKits: Sends running at once — single-flow and
// striped, on both socket paths, of objects whose status maps need acks of
// different lengths — draw their engines' kits from the one pool and hand them
// back as they finish. Every object arrives bit-identical, and every Send's
// socket counters are its own: it counted each data packet it sent and each
// acknowledgement it processed once, and no datagram of another Send's.
// Meaningful under -race, where a kit two engines held at once is a reported
// race.
func TestConcurrentSendsSharePooledKits(t *testing.T) {
	const senders, rounds = 4, 4
	ep := listen(t, byServe, Options{})
	ep.recv(1)
	want := make(map[uint32][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				id := uint32(1 + 8*(s*rounds+r)) // a striped Send's stripes take the ids after its own
				obj := makeObj(64<<10 + int(id)*1100)
				numbered(obj, int(id))
				mu.Lock()
				want[id] = bytes.Clone(obj)
				mu.Unlock()
				var io stats.IOCounters
				opts := Options{IOCounters: &io, NoFastPath: s%2 == 1}
				if s >= senders/2 {
					opts.Streams = 4
				}
				st, err := Send(ep.ctx, ep.addr(), obj, core.Config{Transfer: id}, opts)
				if err != nil {
					t.Errorf("Send %d: %v", id, err)
					continue
				}
				if io.SentDatagrams != st.PacketsSent || io.RecvDatagrams != st.AcksProcessed {
					t.Errorf("Send %d (streams %d, scalar %v): counters %+v against %d packets sent and %d acks processed",
						id, opts.Streams, opts.NoFastPath, io, st.PacketsSent, st.AcksProcessed)
				}
			}
		}()
	}
	wg.Wait()
	for id, r := range ep.byID(len(want)) {
		if !bytes.Equal(r.obj, want[id]) {
			t.Errorf("transfer %d: the receiver holds other bytes than were sent", id)
		}
	}
}
