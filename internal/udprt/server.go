package udprt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// Server accepts many FOBS transfers concurrently on one address: a TCP
// acceptor owns the per-transfer control connections while a single UDP
// read loop demultiplexes data packets to per-transfer receivers by their
// Transfer tag. Each sender must therefore pick a Transfer id distinct
// from other transfers in flight to the same server; a colliding HELLO is
// rejected with an ABORT (duplicate transfer id) rather than silently
// dropped, so the colliding sender fails fast instead of timing out.
type Server struct {
	tcp   *net.TCPListener
	udp   *net.UDPConn
	rx    *batchio.Receiver // the data socket's receive ring (see Listener.rx)
	opts  Options
	store *resumeStore
	cache *contentCache

	mu        sync.Mutex
	transfers map[uint32]*serverTransfer
	closed    bool
}

// serverTransfer is the receive state for one in-flight transfer: the
// shared receiver engine plus the push-side bookkeeping the data loop
// needs. The engine is driven under mu — the Server is the one receive
// path where datagrams arrive from a demux loop instead of a dedicated
// pull loop, so the lock provides the serialization the engine requires.
type serverTransfer struct {
	mu       sync.Mutex
	eng      *receiverEngine
	or       *obs.Recorder // span recorder (nil when untraced)
	lastData time.Time     // when the last drain with a datagram for this transfer began (idle watchdog)
	complete chan struct{} // closed exactly once, on completion
}

// NewServer binds addr for concurrent incoming transfers.
func NewServer(addr string, opts Options) (*Server, error) {
	l, err := Listen(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Server{
		tcp:       l.tcp,
		udp:       l.udp,
		rx:        l.rx,
		opts:      l.opts,
		store:     l.store,
		cache:     l.cache,
		transfers: make(map[uint32]*serverTransfer),
	}, nil
}

// Addr returns the bound control address.
func (s *Server) Addr() string { return s.tcp.Addr().String() }

// Close stops the server; in-flight Accepts return errors.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.udp.Close()
	return s.tcp.Close()
}

// Handler receives each completed transfer. It runs on the transfer's own
// goroutine; the object is owned by the handler.
type Handler func(transfer uint32, obj []byte, st core.ReceiverStats)

// Serve runs the accept and data loops until ctx is cancelled or the
// server is closed. Each completed transfer is passed to handle.
func (s *Server) Serve(ctx context.Context, handle Handler) error {
	if handle == nil {
		return errors.New("udprt: nil handler")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.dataLoop(ctx)
	}()
	defer wg.Wait()
	defer s.udp.Close() // unblocks dataLoop when accept ends

	// One watcher covers the whole accept loop: ctx cancellation kicks
	// the blocking accept out via an immediate deadline, and the deadline
	// is cleared on the way out so the listener stays usable.
	stop := unblockOnDone(ctx, s.tcp.SetDeadline)
	defer func() {
		stop()
		s.tcp.SetDeadline(time.Time{})
	}()

	for {
		ctl, err := s.tcp.AcceptTCP()
		if err != nil {
			if ctx.Err() != nil || s.isClosed() {
				return nil
			}
			return fmt.Errorf("udprt: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handleControl(ctx, ctl, handle)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handleControl owns one transfer's control connection end to end.
func (s *Server) handleControl(ctx context.Context, ctl *net.TCPConn, handle Handler) {
	defer ctl.Close()
	plan, err := readTransferPlan(ctx, ctl)
	if err != nil {
		refuseAnnouncement(ctl, err)
		return
	}
	if plan.hasCheck {
		// Answer the content query before any registration: a dedup hit
		// never competes for the transfer-id space (nothing will arrive on
		// the data socket), so N senders pushing the same hot object fan
		// out of the cache concurrently — the server is the dedup point.
		if obj, ok := plan.dedupHit(s.cache); ok {
			if obj, rstats, err := completeDeduped(plan, ctl, s.opts, obj); err == nil {
				handle(plan.base, obj, rstats)
			}
			return
		}
		if err := answerCheckMiss(ctl, plan.base); err != nil {
			return
		}
	}
	if plan.striped() || (plan.resume && plan.resumeStreams > 1) {
		// Receive-side striping for the concurrent server is not built
		// yet (see ROADMAP.md); refuse cleanly — with the dedicated
		// reason, so an orchestrating sender can deterministically retry
		// unstriped — instead of letting the striped sender stall out.
		writeAbort(ctl, plan.base, wire.AbortStripingUnsupported)
		return
	}
	hello := wire.Hello{
		Transfer:   plan.base,
		ObjectSize: plan.objectSize,
		PacketSize: uint32(plan.packetSize),
	}
	st := &serverTransfer{complete: make(chan struct{}), lastData: time.Now()}
	cfg := core.Config{
		PacketSize:   int(hello.PacketSize),
		Transfer:     hello.Transfer,
		AckFrequency: core.DefaultAckFrequency,
	}
	var rcv *core.Receiver
	restored := 0
	var haveWords []uint64
	haveReceived, finished := 0, false
	if plan.resume {
		ret, reason := s.store.claim(plan.resumeFrame())
		if ret == nil {
			writeAbort(ctl, plan.base, reason)
			return
		}
		rcv = core.NewReceiverInto(ret.obj, cfg)
		if restored, err = rcv.Restore(ret.words); err != nil {
			writeAbort(ctl, plan.base, wire.AbortResumeUnknown)
			return
		}
		// Snapshot the HAVE payload before the transfer is published to the
		// data loop: stragglers from the interrupted run may start mutating
		// the bitmap the moment the map insert lands.
		haveWords = rcv.HaveWords(nil)
		haveReceived = rcv.Stats().Received
		finished = rcv.Complete()
	} else {
		rcv = core.NewReceiver(int64(hello.ObjectSize), cfg)
	}
	// The engine is built (and, for a resumed transfer, its sealer seeded
	// from the restored bitmap) outside the server lock; only its instruments
	// wait for the critical section below.
	st.eng = newReceiverEngine(rcv, nil, nil)
	st.eng.finished = finished
	seal := plan.startSealer(rcv.Object(), st.eng)
	defer seal.abandon()

	s.mu.Lock()
	if _, dup := s.transfers[hello.Transfer]; dup {
		s.mu.Unlock()
		// Reject promptly: the colliding sender gets a reasoned ABORT
		// instead of blasting data that would corrupt the other transfer's
		// accounting and then stalling out.
		writeAbort(ctl, hello.Transfer, wire.AbortDuplicateTransfer)
		return
	}
	// Register instrumentation inside the same critical section that
	// publishes the transfer to the data loop: after the duplicate-id check
	// (a rejected colliding HELLO must not disturb the in-flight transfer's
	// record) and before the map insert (the data loop reads the engine's
	// instruments as soon as the transfer is routable).
	st.eng.tm = s.opts.Metrics.StartReceiver(hello.Transfer, rcv.NumPackets(), int64(hello.ObjectSize))
	st.eng.fr = s.opts.Record.StartReceiver(hello.Transfer, rcv.NumPackets(), int64(hello.ObjectSize), int(hello.PacketSize))
	st.or = s.opts.startRecorder(plan.trace, hello.Transfer, obs.RoleReceiver)
	s.transfers[hello.Transfer] = st
	s.mu.Unlock()
	if plan.hasCheck {
		st.or.Event(obs.KindCheck, 0) // the query was answered a miss above
	}
	defer func() {
		s.mu.Lock()
		delete(s.transfers, hello.Transfer)
		s.mu.Unlock()
	}()

	// retain parks the transfer's partial state (under the engine lock —
	// the data loop may still be ingesting) so a later RESUME can claim it.
	retain := func() {
		st.mu.Lock()
		s.store.retainReceiver(plan.base, plan.objectSize, plan.packetSize,
			rcv, plan.resumeDigest, plan.resume)
		st.mu.Unlock()
	}
	if plan.resume {
		st.eng.tm.NoteRestored(restored)
		err = writeHave(ctl, hello.Transfer, haveReceived, haveWords)
	} else {
		err = writeHelloAck(ctl, hello.Transfer)
	}
	if err != nil {
		if plan.resume {
			retain() // the sender never saw our acceptance; stay claimable
		}
		finishInstruments(st.eng.tm, st.eng.fr, err)
		finishTrace(st.or, err)
		return
	}
	noteHandshake(st.eng.tm, st.eng.fr)
	st.or.Event(obs.KindHandshake, 0)
	if plan.resume {
		st.or.Event(obs.KindResume, uint64(restored))
	}
	if finished {
		// Fully restored: nothing left on the wire, complete immediately.
		close(st.complete)
	}
	// The connection carries at most one more inbound frame (an ABORT),
	// so it is safe to watch for sender death while waiting.
	abortCh := watchControl(ctl, hello.Transfer)

	var idleC <-chan time.Time
	if s.opts.IdleTimeout > 0 {
		period := s.opts.IdleTimeout / 4
		if period < 50*time.Millisecond {
			period = 50 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		idleC = tick.C
	}
wait:
	for {
		select {
		case <-st.complete:
			break wait
		case <-ctx.Done():
			writeAbort(ctl, hello.Transfer, wire.AbortCancelled)
			retain()
			abortInstruments(st.eng.tm, st.eng.fr, wire.AbortCancelled)
			abortTrace(st.or, wire.AbortCancelled)
			return
		case err := <-abortCh:
			// Sender aborted or its control connection died; the data
			// loop's packets for this id stop mattering once we deregister.
			retain()
			finishInstruments(st.eng.tm, st.eng.fr, err)
			finishTrace(st.or, err)
			return
		case <-idleC:
			st.mu.Lock()
			idle := !st.eng.finished && time.Since(st.lastData) > s.opts.IdleTimeout
			if idle {
				st.eng.noteIdle()
			}
			st.mu.Unlock()
			if idle {
				writeAbort(ctl, hello.Transfer, wire.AbortIdleTimeout)
				retain()
				abortInstruments(st.eng.tm, st.eng.fr, wire.AbortIdleTimeout)
				abortTrace(st.or, wire.AbortIdleTimeout)
				return
			}
		}
	}
	// The object is fully received at this point, whatever becomes of the
	// COMPLETE control write below.
	st.mu.Lock()
	obj := st.eng.rcv.Object()
	rstats := st.eng.rcv.Stats()
	st.mu.Unlock()
	st.or.Event(obs.KindDrain, uint64(seal.pending()))
	if plan.resume && wire.ObjectDigest(obj) != plan.resumeDigest {
		// The retained bytes plus the resumed run assembled a different
		// object than the sender announced — unrecoverable for this id.
		writeAbort(ctl, hello.Transfer, wire.AbortDigestMismatch)
		abortInstruments(st.eng.tm, st.eng.fr, wire.AbortDigestMismatch)
		abortTrace(st.or, wire.AbortDigestMismatch)
		return
	}
	if err := plan.verifyContent(obj, seal); err != nil {
		// The assembled bytes are not the announced content: corrupted
		// past the CRC's reach, or a sender lying about identity. Either
		// way the object is neither delivered nor cached.
		writeAbort(ctl, hello.Transfer, wire.AbortDigestMismatch)
		abortInstruments(st.eng.tm, st.eng.fr, wire.AbortDigestMismatch)
		abortTrace(st.or, wire.AbortDigestMismatch)
		return
	}
	finishInstruments(st.eng.tm, st.eng.fr, nil)
	finishTrace(st.or, nil)
	cacheVerified(s.cache, plan, obj)
	if err := writeComplete(ctl, plan, obj); err != nil {
		return
	}
	handle(hello.Transfer, obj, rstats)
}

// dataLoop demultiplexes incoming datagrams to transfers. One wakeup
// drains up to Options.IOBatch messages — datagrams or whole trains —
// through the socket's batched receiver (one datagram per read on the
// scalar path) before touching the socket again, so concurrent senders cost
// one recvmmsg per queueful, not one read each. The clock is read once per
// drain, not per datagram.
func (s *Server) dataLoop(ctx context.Context) {
	rx := s.rx
	for {
		s.udp.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := rx.Recv()
		if err != nil {
			if isTimeout(err) {
				if ctx.Err() != nil || s.isClosed() {
					return
				}
				continue
			}
			return // socket closed
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			s.handleDatagram(rx.Datagram(i), rx.Addr(i), now)
		}
	}
}

// handleDatagram routes one data packet of the drain that began at now to
// its transfer, replying with an acknowledgement when one is due.
func (s *Server) handleDatagram(buf []byte, from netip.AddrPort, now time.Time) {
	d, err := wire.DecodeData(buf)
	if err != nil {
		return
	}
	s.mu.Lock()
	st := s.transfers[d.Transfer]
	s.mu.Unlock()
	if st == nil {
		return // unknown or finished transfer
	}
	st.mu.Lock()
	st.lastData = now // even a duplicate proves the sender lives
	st.or.Once(obs.KindRounds, 0)
	ack, ackSeq, ackRecv, finished := st.eng.ingest(d)
	st.mu.Unlock()
	if ack != nil {
		// The ack frame aliases the engine's buffer; only this data-loop
		// goroutine ingests, so it stays valid until the next datagram.
		s.udp.WriteToUDPAddrPort(ack, from)
		st.eng.noteAckSent(ack, ackSeq, ackRecv)
	}
	if finished {
		close(st.complete)
	}
}
