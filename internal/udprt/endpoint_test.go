// The endpoint matrix: Listener.Accept, IncomingSession.Next and
// Server.Serve are three adapters over one receive lifecycle, so one table of
// scenarios runs against all three. Every sender reaches its endpoint through
// a faultnet proxy whose control tap records the frames the receiver
// answered with; every scenario ends with the endpoint quiet — no transfer
// tag registered, no sealer goroutine alive.
package udprt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// eachEndpoint runs fn against a fresh endpoint of each kind, behind a proxy
// with the faults a call of faults returns (nil: none), and requires each to
// end quiet.
func eachEndpoint(t *testing.T, opts Options, faults func() *faultnet.Faults, fn func(t *testing.T, ep *testEndpoint)) {
	for _, kind := range []string{byAccept, bySession, byServe} {
		t.Run(kind, func(t *testing.T) {
			opts := opts
			opts.Metrics, opts.IOCounters = metrics.New(), new(stats.IOCounters)
			ep := listen(t, kind, opts)
			var f *faultnet.Faults
			if faults != nil {
				f = faults()
			}
			ep.front(f)
			defer func() { ep.close(); ep.quiet() }()
			fn(t, ep)
		})
	}
}

// The retired announcement frames as earlier builds wrote them.

// legacyResume is a RESUME frame (type 8) for obj under id: magic, type,
// version 1, one stream, transfer, object size, packet size, whole-object
// CRC-32C.
func legacyResume(id uint32, obj []byte, ps int) []byte {
	b := binary.BigEndian.AppendUint16(nil, wire.Magic)
	b = append(b, 8, 1)
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint32(b, id)
	b = binary.BigEndian.AppendUint64(b, uint64(len(obj)))
	b = binary.BigEndian.AppendUint32(b, uint32(ps))
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(obj, crc32.MakeTable(crc32.Castagnoli)))
}

// legacyHelloX is a HELLOX frame (type 7) announcing obj under id in n
// stripes: magic, type, version 1, a two-byte stripe count, transfer, object
// size, packet size, then each stripe's tag, offset and length.
func legacyHelloX(id uint32, obj []byte, ps, n int) []byte {
	stripes := splitStripes(int64(len(obj)), ps, n, id)
	b := binary.BigEndian.AppendUint16(nil, wire.Magic)
	b = append(b, 7, 1)
	b = binary.BigEndian.AppendUint16(b, uint16(len(stripes)))
	b = binary.BigEndian.AppendUint32(b, id)
	b = binary.BigEndian.AppendUint64(b, uint64(len(obj)))
	b = binary.BigEndian.AppendUint32(b, uint32(ps))
	for _, s := range stripes {
		b = binary.BigEndian.AppendUint32(b, s.Transfer)
		b = binary.BigEndian.AppendUint64(b, s.Offset)
		b = binary.BigEndian.AppendUint64(b, s.Length)
	}
	return b
}

// legacyTrace is a TRACE prelude (type 10), written ahead of the
// announcement: magic, type, version, the 16-byte trace id.
func legacyTrace(version uint8, id [16]byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, wire.Magic)
	return append(append(b, 10, version), id[:]...)
}

func TestEndpointMatrix(t *testing.T) {
	const ps = 1024
	obj := makeObj(96<<10 + 7)
	packets := core.NumPackets(int64(len(obj)), ps)
	starve := Options{IdleTimeout: 300 * time.Millisecond}
	for _, sc := range []struct {
		name   string
		opts   Options
		faults func() *faultnet.Faults
		run    func(t *testing.T, ep *testEndpoint)
	}{
		{name: "fresh", run: func(t *testing.T, ep *testEndpoint) {
			ep.recv(1)
			sst, err := Send(ep.ctx, ep.proxy.Addr(), obj, core.Config{Transfer: 11, PacketSize: ps}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ep.delivered(obj)
			ep.wantFrames(true, "HAVE(0)", "COMPLETE")
			// Every endpoint credits the transfer with its socket work, in the
			// record and in Options.IOCounters alike.
			rec := ep.completed(11)
			ep.l.mu.Lock()
			io := *ep.l.opts.IOCounters
			ep.l.mu.Unlock()
			if rec.IO != io || io.RecvDatagrams < sst.PacketsNeeded || io.RecvCalls == 0 || io.SentDatagrams == 0 {
				t.Fatalf("socket counters: record %+v, Options.IOCounters %+v, %d packets needed", rec.IO, io, sst.PacketsNeeded)
			}
		}},
		{name: "old receiver (window byte 0)", opts: Options{testNoWindow: true}, run: func(t *testing.T, ep *testEndpoint) {
			// What a receiver built before the window answers with: byte 3
			// of its acceptance zero. The sender takes that for "no window" and
			// the transfer — longer than the window such an endpoint would
			// have advertised had it known how — runs as it always did.
			big := makeObj(1<<20 + 31)
			ep.recv(1)
			if _, err := Send(ep.ctx, ep.proxy.Addr(), big, core.Config{Transfer: 15, PacketSize: ps}, Options{}); err != nil {
				t.Fatal(err)
			}
			ep.delivered(big)
			ep.wantFrames(true, "HAVE(0)(no window)", "COMPLETE")
			ep.completed(15)
		}},
		{name: "4 stripes", run: func(t *testing.T, ep *testEndpoint) {
			ep.recv(1)
			if _, err := Send(ep.ctx, ep.proxy.Addr(), obj, core.Config{Transfer: 21, PacketSize: ps}, Options{Streams: 4}); err != nil {
				t.Fatal(err)
			}
			ep.delivered(obj)
			ep.wantFrames(true, "HAVE(0)", "COMPLETE")
			for tag := uint32(21); tag < 25; tag++ {
				ep.completed(tag)
			}
		}},
		{name: "4 stripes verified, two at once", run: func(t *testing.T, ep *testEndpoint) {
			// Two striped objects that differ in one byte, at once: each is
			// verified against its own content identity, and neither is
			// answered from the other.
			objs := [][]byte{bytes.Clone(obj), bytes.Clone(obj)}
			objs[1][0] ^= 0xFF
			errs := make([]error, len(objs))
			var wg sync.WaitGroup
			for i := range objs {
				ep.recv(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = Send(ep.ctx, ep.proxy.Addr(), objs[i],
						core.Config{Transfer: uint32(31 + 16*i), PacketSize: ps}, Options{Streams: 4})
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("sender %d: %v", i, err)
				}
			}
			seen := map[byte]bool{}
			for range objs {
				r, _ := ep.result(false)
				if r.err != nil || (!bytes.Equal(r.obj, objs[0]) && !bytes.Equal(r.obj, objs[1])) {
					t.Fatalf("delivery: err=%v, %d bytes matching neither object sent", r.err, len(r.obj))
				}
				seen[r.obj[0]] = true
			}
			if len(seen) != len(objs) {
				t.Fatal("one object was delivered twice, the other never")
			}
			ep.wantFrames(false, "HAVE(0)", "COMPLETE", "HAVE(0)", "COMPLETE")
		}},
		{name: "resumed after a sever", opts: Options{IdleTimeout: 500 * time.Millisecond}, run: func(t *testing.T, ep *testEndpoint) {
			big := makeObj(1<<20 + 31)
			ep.recvUntilSuccess()
			var cut atomic.Bool
			sever := func() {
				if cut.CompareAndSwap(false, true) {
					ep.proxy.SetBlackhole(true)
					ep.proxy.SeverControl()
					time.AfterFunc(100*time.Millisecond, func() { ep.proxy.SetBlackhole(false) })
				}
			}
			opts := Options{
				StallTimeout: 2 * time.Second,
				Pace:         killPointPace,
				Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 7},
				Progress: func(done, total int) {
					if done > total/2 {
						sever()
					}
				},
			}
			opts.testFlushHook = beforeEnd(core.NumPackets(int64(len(big)), ps), sever)
			sst, err := Send(ep.ctx, ep.proxy.Addr(), big, core.Config{Transfer: 51, PacketSize: ps, AckFrequency: 8}, opts)
			if err != nil || !cut.Load() {
				t.Fatalf("supervised send: err=%v cut=%v", err, cut.Load())
			}
			r := ep.delivered(big)
			if sst.Restored == 0 || r.st.Restored == 0 {
				t.Fatalf("nothing resumed: sender restored %d, receiver %d", sst.Restored, r.st.Restored)
			}
			// The first connection got as far as the handshake; the second
			// had its CHECK answered with what the first left behind.
			ep.wantFrames(true, "HAVE(0)", "HAVE(+)", "COMPLETE")
			if rec := ep.completed(51); rec.PacketsRestored == 0 {
				t.Fatalf("final record restored nothing: %+v", rec)
			}
		}},
		{name: "fully restored resume", run: func(t *testing.T, ep *testEndpoint) {
			// Retained state that is the whole object answers the CHECK the
			// way a cache hit does: the full HAVE, then COMPLETE, no data.
			ep.seedRetained(obj, ps, packets)
			ep.recv(1)
			peer := dialRaw(t, ep.proxy.Addr(), announceFor(61, obj, ps))
			if f := peer.read(); f.typ != wire.TypeHave || int(f.have.Received) != packets {
				t.Fatalf("CHECK answered with frame type %d holding %d packets; want a HAVE of all %d", f.typ, f.have.Received, packets)
			}
			if r := ep.delivered(obj); r.st.Restored != packets || r.st.Deduped {
				t.Fatalf("restored %d of %d packets (deduped %v)", r.st.Restored, packets, r.st.Deduped)
			}
			ep.wantFrames(true, "HAVE(+)", "COMPLETE")
			ep.completed(61)
		}},
		{name: "HAVE write severed", run: func(t *testing.T, ep *testEndpoint) {
			// Hold the lifecycle once it has claimed the state (at its
			// registration), kill the connection under it, let it go: the
			// HAVE that answers the CHECK cannot be written, and the claimed
			// state — complete, nothing left to receive — must go back to the
			// store.
			ep.seedRetained(obj, ps, packets)
			ep.l.mu.Lock()
			ep.recv(1)
			peer := dialRaw(t, ep.l.Addr(), announceFor(62, obj, ps))
			waitUntil(t, 10*time.Second, "the lifecycle claiming the retained state", func() bool { return !ep.retains(obj) })
			peer.reset()
			ep.l.mu.Unlock()
			if r, ok := ep.result(true); ok && r.err == nil {
				t.Fatal("a transfer whose HAVE could not be written was delivered")
			}
			ep.aborted(62, wire.AbortUnspecified)
			if !ep.retains(obj) {
				t.Fatal("the claimed resume state was lost with the failed HAVE")
			}
			ep.recv(1)
			dialRaw(t, ep.proxy.Addr(), announceFor(62, obj, ps))
			ep.delivered(obj)
			ep.wantFrames(true, "HAVE(+)", "COMPLETE")
		}},
		{name: "retained content under another id", run: func(t *testing.T, ep *testEndpoint) {
			// The identity is the content, not the transfer id: a fresh Send
			// under a new id of content the receiver retains in part sends
			// only the rest.
			ep.seedRetained(obj, ps, packets/2)
			ep.recv(1)
			sst, err := Send(ep.ctx, ep.proxy.Addr(), obj, core.Config{Transfer: 64, PacketSize: ps}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := ep.delivered(obj)
			if sst.Restored != packets/2 || r.st.Restored != packets/2 || sst.PacketsSent < packets-packets/2 {
				t.Fatalf("restored: sender %d, receiver %d, of %d retained; sender sent %d",
					sst.Restored, r.st.Restored, packets/2, sst.PacketsSent)
			}
			ep.wantFrames(true, "HAVE(+)", "COMPLETE")
			if ep.retains(obj) {
				t.Fatal("the claimed state is still retained")
			}
		}},
		{name: "other object under a retained id", run: func(t *testing.T, ep *testEndpoint) {
			// A different object under the retained transfer id is a miss,
			// and leaves the retained entry alone.
			other := bytes.Clone(obj)
			other[0] ^= 0xFF
			ep.seedRetained(obj, ps, packets/2)
			ep.recv(1)
			sst, err := Send(ep.ctx, ep.proxy.Addr(), other, core.Config{Transfer: 65, PacketSize: ps}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r := ep.delivered(other); sst.Restored != 0 || r.st.Restored != 0 {
				t.Fatalf("restored %d (receiver %d) from another object's state", sst.Restored, r.st.Restored)
			}
			ep.wantFrames(true, "HAVE(0)", "COMPLETE")
			if !ep.retains(obj) {
				t.Fatal("another object's transfer took the retained state")
			}
		}},
		{name: "unrestorable retained state", run: func(t *testing.T, ep *testEndpoint) {
			// Retained state whose bitmap does not fit the object is dropped
			// and the CHECK answered as a miss, never refused.
			ep.l.store.hold(&entry{content: core.ContentID(obj), packetSize: ps, obj: make([]byte, len(obj)),
				words: fullWords(packets + 640), received: packets})
			ep.recv(1)
			sst, err := Send(ep.ctx, ep.proxy.Addr(), obj, core.Config{Transfer: 67, PacketSize: ps}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r := ep.delivered(obj); sst.Restored != 0 || r.st.Restored != 0 {
				t.Fatalf("restored %d (receiver %d) from a bitmap that does not fit", sst.Restored, r.st.Restored)
			}
			ep.wantFrames(true, "HAVE(0)", "COMPLETE")
			if ep.retains(obj) {
				t.Fatal("the unrestorable state is still retained")
			}
		}},
		{name: "RESUME from an earlier build", run: func(t *testing.T, ep *testEndpoint) {
			// The retired frame is refused with a reason, and nothing is
			// registered or claimed.
			ep.seedRetained(obj, ps, packets/2)
			ep.recv(1)
			dialRaw(t, ep.proxy.Addr(), legacyResume(66, obj, ps))
			if r, ok := ep.result(true); ok && r.err == nil {
				t.Fatal("a RESUME was taken as a transfer")
			}
			ep.wantFrames(true, "ABORT("+wire.AbortBadHello.String()+")")
			if ep.tags() != 0 || !ep.retains(obj) {
				t.Fatalf("a refused RESUME left %d tags registered (retained: %v)", ep.tags(), ep.retains(obj))
			}
		}},
		{name: "HELLOX from an earlier build", run: func(t *testing.T, ep *testEndpoint) {
			// A CHECK naming retained content, then the retired striped
			// announcement: refused with a reason, nothing registered or
			// claimed.
			ep.seedRetained(obj, ps, packets/2)
			ep.recv(1)
			check := announceFor(67, obj, ps)[:wire.CheckLen]
			dialRaw(t, ep.proxy.Addr(), append(check, legacyHelloX(67, obj, ps, 4)...))
			if r, ok := ep.result(true); ok && r.err == nil {
				t.Fatal("a HELLOX was taken as a transfer")
			}
			ep.wantFrames(true, "ABORT("+wire.AbortBadHello.String()+")")
			if ep.tags() != 0 || !ep.retains(obj) {
				t.Fatalf("a refused HELLOX left %d tags registered (retained: %v)", ep.tags(), ep.retains(obj))
			}
		}},
		{name: "TRACE prelude from an earlier build", run: func(t *testing.T, ep *testEndpoint) {
			// The retired prelude ahead of an announcement of retained
			// content: refused with a reason, nothing registered or claimed.
			ep.seedRetained(obj, ps, packets/2)
			ep.recv(1)
			dialRaw(t, ep.proxy.Addr(), append(legacyTrace(1, [16]byte{7}), announceFor(68, obj, ps)...))
			if r, ok := ep.result(true); ok && r.err == nil {
				t.Fatal("a traced announcement of an earlier build was taken as a transfer")
			}
			ep.wantFrames(true, "ABORT("+wire.AbortBadHello.String()+")")
			if ep.tags() != 0 || !ep.retains(obj) {
				t.Fatalf("a refused TRACE prelude left %d tags registered (retained: %v)", ep.tags(), ep.retains(obj))
			}
		}},
		{name: "CHECK and HELLO disagree", run: func(t *testing.T, ep *testEndpoint) {
			// A CHECK that names another transfer, object size or packet size
			// than the HELLO behind it is refused before any tag is
			// registered, and the retained state of the content it names is
			// left alone.
			ep.seedRetained(obj, ps, packets/2)
			for _, bend := range []func(*wire.Check){
				func(c *wire.Check) { c.Transfer++ },
				func(c *wire.Check) { c.ObjectSize-- },
				func(c *wire.Check) { c.PacketSize *= 2 },
			} {
				c := wire.Check{Flags: wire.CheckFlagDedup, Transfer: 69, ObjectSize: uint64(len(obj)),
					PacketSize: ps, Digest: core.ContentID(obj)}
				bend(&c)
				ep.recv(1)
				dialRaw(t, ep.proxy.Addr(), wire.AppendHello(wire.AppendCheck(nil, &c),
					&wire.Hello{Transfer: 69, ObjectSize: uint64(len(obj)), PacketSize: ps}))
				if r, ok := ep.result(true); ok && r.err == nil {
					t.Fatal("a CHECK that disagrees with its HELLO was taken as a transfer")
				}
			}
			abort := "ABORT(" + wire.AbortBadHello.String() + ")"
			ep.wantFrames(true, abort, abort, abort)
			if ep.tags() != 0 || !ep.retains(obj) {
				t.Fatalf("a refused announcement left %d tags registered (retained: %v)", ep.tags(), ep.retains(obj))
			}
		}},
		{name: "dedup hit", run: func(t *testing.T, ep *testEndpoint) {
			for tag := uint32(71); tag <= 72; tag++ {
				ep.recv(1)
				sst, err := Send(ep.ctx, ep.proxy.Addr(), obj, core.Config{Transfer: tag, PacketSize: ps}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				r := ep.delivered(obj)
				if hit := tag == 72; sst.Deduped != hit || r.st.Deduped != hit || hit && sst.PacketsSent != 0 {
					t.Fatalf("push %d: sender %+v, receiver %+v", tag, sst, r.st)
				}
			}
			ep.wantFrames(true, "HAVE(0)", "COMPLETE", "HAVE(+)", "COMPLETE")
			if rec := ep.completed(72); rec.PacketsRestored != int64(packets) {
				t.Fatalf("dedup record restored %d of %d", rec.PacketsRestored, packets)
			}
		}},
		{name: "flipped byte", faults: func() *faultnet.Faults {
			return faultnet.New(faultnet.Policy{Seed: 7, CorruptOffset: wire.DataHeaderLen, CorruptIf: func(pkt []byte) bool {
				d, err := wire.DecodeData(pkt)
				return err == nil && d.Seq == 3
			}})
		}, run: func(t *testing.T, ep *testEndpoint) {
			ep.recv(1)
			_, serr := Send(ep.ctx, ep.proxy.Addr(), obj, core.Config{Transfer: 81, PacketSize: ps}, Options{Pace: 2 * time.Microsecond})
			if !errors.Is(serr, ErrDigestMismatch) {
				t.Fatalf("sender err = %v, want ErrDigestMismatch", serr)
			}
			if r, ok := ep.result(true); ok && (!errors.Is(r.err, ErrDigestMismatch) || r.obj != nil) {
				t.Fatalf("receiver err = %v with %d bytes delivered, want ErrDigestMismatch and nothing", r.err, len(r.obj))
			}
			ep.wantFrames(true, "HAVE(0)", "ABORT("+wire.AbortDigestMismatch.String()+")")
			ep.aborted(81, wire.AbortDigestMismatch)
			if ep.l.store.len() != 0 || ep.retains(obj) {
				t.Fatal("a corrupted object was cached or retained")
			}
		}},
		{name: "idle timeout", opts: starve, run: func(t *testing.T, ep *testEndpoint) {
			ep.recv(1)
			peer := dialRaw(t, ep.proxy.Addr(), announceFor(91, obj, ps))
			peer.accepted()
			peer.data(91, obj, ps, 0, packets/2)
			if r, ok := ep.result(true); ok && (!errors.Is(r.err, ErrIdle) || r.st.IdleTimeouts != 1) {
				t.Fatalf("receiver err = %v, stats %+v, want ErrIdle", r.err, r.st)
			}
			ep.wantFrames(true, "HAVE(0)", "ABORT("+wire.AbortIdleTimeout.String()+")")
			ep.aborted(91, wire.AbortIdleTimeout)
			if !ep.retains(obj) {
				t.Fatal("the starved transfer's state was not retained")
			}
		}},
		{name: "sender ABORT", opts: starve, run: func(t *testing.T, ep *testEndpoint) {
			ep.recv(1)
			peer := dialRaw(t, ep.proxy.Addr(), announceFor(92, obj, ps))
			peer.accepted()
			peer.data(92, obj, ps, 0, packets/2)
			ep.placed(92)
			writeAbort(peer.ctl, 92, wire.AbortCancelled)
			if r, ok := ep.result(true); ok {
				var abort *AbortError
				if !errors.As(r.err, &abort) || abort.Reason != wire.AbortCancelled {
					t.Fatalf("receiver err = %v, want the sender's ABORT", r.err)
				}
			}
			ep.aborted(92, wire.AbortCancelled)
			ep.wantFrames(true, "HAVE(0)")
			if !ep.retains(obj) {
				t.Fatal("the aborted transfer's state was not retained")
			}
		}},
		{name: "sender's control connection closed mid-transfer", run: func(t *testing.T, ep *testEndpoint) {
			// At the default IdleTimeout (30 s): only the control connection's
			// reader can end the transfer this soon.
			ep.recv(1)
			peer := dialRaw(t, ep.proxy.Addr(), announceFor(94, obj, ps))
			peer.accepted()
			peer.data(94, obj, ps, 0, packets/2)
			ep.placed(94)
			closed := time.Now()
			peer.ctl.Close()
			if r, ok := ep.result(true); ok && (r.err == nil || errors.Is(r.err, ErrIdle)) {
				t.Fatalf("receiver err = %v, want the lost control connection", r.err)
			}
			ep.aborted(94, wire.AbortUnspecified)
			if took := time.Since(closed); took > time.Second {
				t.Fatalf("the transfer ended %v after its control connection closed, want within 1s", took)
			}
			ep.wantFrames(true, "HAVE(0)")
			if !ep.retains(obj) {
				t.Fatal("the orphaned transfer's state was not retained")
			}
		}},
		{name: "ctx cancel", run: func(t *testing.T, ep *testEndpoint) {
			ep.recv(1)
			peer := dialRaw(t, ep.proxy.Addr(), announceFor(93, obj, ps))
			peer.accepted()
			peer.data(93, obj, ps, 0, packets/2)
			ep.placed(93)
			ep.cancel()
			if r, ok := ep.result(true); ok && !errors.Is(r.err, context.Canceled) {
				t.Fatalf("receiver err = %v, want context.Canceled", r.err)
			}
			ep.wantFrames(true, "HAVE(0)", "ABORT("+wire.AbortCancelled.String()+")")
			ep.aborted(93, wire.AbortCancelled)
			if !ep.retains(obj) {
				t.Fatal("the cancelled transfer's state was not retained")
			}
		}},
		{name: "duplicate tag", run: func(t *testing.T, ep *testEndpoint) {
			// An announcement of retained content collides with a transfer
			// of another object in flight under its tag: refused as a
			// duplicate, with the state left claimable and the transfer in
			// flight unharmed.
			other := bytes.Clone(obj)
			other[0] ^= 0xFF
			ep.seedRetained(obj, ps, 1)
			ep.recv(1)
			ep.recv(1)
			squatter := dialRaw(t, ep.proxy.Addr(), announceFor(95, other, ps))
			squatter.accepted()
			squatter.data(95, other, ps, 0, packets/2)
			collider := dialRaw(t, ep.proxy.Addr(), announceFor(95, obj, ps))
			if f := collider.read(); f.typ != wire.TypeAbort || f.abort.Reason != wire.AbortDuplicateTransfer {
				t.Fatalf("collider was answered type %d (%s), want ABORT(duplicate)", f.typ, f.abort.Reason)
			}
			if r, ok := ep.result(true); ok && r.err == nil {
				t.Fatal("the colliding announcement was delivered as a transfer")
			}
			if !ep.retains(obj) {
				t.Fatal("the refused announcement took the retained state with it")
			}
			squatter.dataUntil(95, other, ps, 0, packets, func() bool { return len(ep.got) > 0 })
			ep.delivered(other)
			ep.wantFrames(true, "HAVE(0)", "ABORT("+wire.AbortDuplicateTransfer.String()+")", "COMPLETE")
			if rec := ep.completed(95); rec.Rejected != 0 || rec.Fresh != int64(packets) || rec.PacketsRestored != 0 {
				t.Fatalf("the transfer in flight was disturbed: %+v", rec)
			}
		}},
		{name: "striped RESUME", run: func(t *testing.T, ep *testEndpoint) {
			// A striped announcement of retained content never claims it: it
			// moves every packet, and once kept whole it displaces the partial
			// entry — the store holds one entry per content.
			ep.seedRetained(obj, ps, packets/2)
			ep.recv(1)
			sst, err := Send(ep.ctx, ep.proxy.Addr(), obj, core.Config{Transfer: 97, PacketSize: ps}, Options{Streams: 4})
			if err != nil {
				t.Fatal(err)
			}
			if r := ep.delivered(obj); sst.Restored != 0 || r.st.Restored != 0 {
				t.Fatalf("a striped transfer restored %d (receiver %d)", sst.Restored, r.st.Restored)
			}
			ep.wantFrames(true, "HAVE(0)", "COMPLETE")
			if ep.retains(obj) || ep.l.store.len() != 1 {
				t.Fatal("the completed striped transfer left its partial state beside the whole object")
			}
		}},
		{name: "COMPLETE write severed", run: func(t *testing.T, ep *testEndpoint) {
			// Hold the lifecycle between its verdict and its COMPLETE (at the
			// store's keep), kill the connection under it, let it go: the
			// record must say the transfer failed, with the write's error.
			ep.recv(1)
			peer := dialRaw(t, ep.l.Addr(), announceFor(98, obj, ps))
			peer.accepted()
			peer.dataUntil(98, obj, ps, 0, packets-1, func() bool { return ep.fresh(98) == int64(packets-1) })
			ep.l.store.mu.Lock()
			peer.dataUntil(98, obj, ps, packets-1, packets, func() bool { return ep.tags() == 0 })
			peer.reset()
			ep.l.store.mu.Unlock()
			if r, ok := ep.result(true); ok && r.err == nil {
				t.Fatal("a transfer whose COMPLETE could not be written was delivered")
			}
			ep.aborted(98, wire.AbortUnspecified)
		}},
	} {
		t.Run(sc.name, func(t *testing.T) { eachEndpoint(t, sc.opts, sc.faults, sc.run) })
	}
}

// TestStripingUnsupportedStaysTerminal: no endpoint of this build refuses
// stripes, but an older Server may still answer ABORT with the code it once
// meant striping-unsupported by, reserved now (as is the retired RESUME's
// refusal code before it); either decodes, and reads as a deliberate
// rejection, not a reason to retry.
func TestStripingUnsupportedStaysTerminal(t *testing.T) {
	for _, code := range []wire.AbortReason{8, 9} {
		a, err := wire.DecodeAbort(wire.AppendAbort(nil, &wire.Abort{Transfer: 3, Reason: code}))
		if err != nil || a.Reason != code || a.Reason.String() != fmt.Sprintf("reason(%d)", code) {
			t.Fatalf("decode: %+v (%s), %v", a, a.Reason, err)
		}
		if IsRetryable(&AbortError{Transfer: 3, Reason: a.Reason}) {
			t.Fatalf("reserved code %d classified as retryable", code)
		}
	}
}
