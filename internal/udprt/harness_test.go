// The endpoint harness: the one way this package's tests reach a real
// socket. Every listener, session listener and server a test runs is bound
// here (listen), every raw control or data socket a test drives is dialled
// or bound here (dialRaw, dialData, udpPair, newFakeReceiver), and every wait
// on an endpoint is a wait on state the test can observe — the receiver's
// metrics record, the tag table, the frames a tap collected, an adapter's
// report or the sender's return — polled by waitUntil, never a sleep or a
// goroutine count.
package udprt

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// The Listener's three ways to take a transfer, over the one receive
// lifecycle.
const (
	byAccept  = "accept"  // Listener.Accept
	bySession = "session" // Listener.AcceptSession, then IncomingSession.Next
	byServe   = "serve"   // Listener.Serve
)

// pollStep is the harness's one poll step.
const pollStep = 2 * time.Millisecond

// waitUntil polls cond, state the test can observe, until it holds, and fails
// the test, saying what it waited for, when it still does not after within.
func waitUntil(t testing.TB, within time.Duration, what any, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(pollStep) { // the harness's poll step
		if time.Now().After(deadline) {
			t.Fatalf("%v: not within %v", what, within)
		}
	}
}

// lazy is a description of a wait written when the wait fails, from the
// state it failed in.
type lazy func() string

func (f lazy) String() string { return f() }

// received is one transfer's outcome as its adapter reported it; Serve
// reports its transfer id too.
type received struct {
	id  uint32
	obj []byte
	st  core.ReceiverStats
	err error
}

// pushed is one push's outcome at both ends.
type pushed struct {
	received
	sst  core.SenderStats
	serr error
}

// frameTap collects the control bytes a receiver wrote toward its senders.
type frameTap struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (f *frameTap) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buf.Write(p)
}

// frames names the whole frames collected so far, in order.
func (f *frameTap) frames() []string {
	f.mu.Lock()
	r := bytes.NewReader(bytes.Clone(f.buf.Bytes()))
	f.mu.Unlock()
	var out []string
	for r.Len() > 0 {
		fr, err := readControlFrame(r)
		if err != nil {
			break // a frame still in flight
		}
		switch fr.typ {
		case wire.TypeHave:
			// Every answer advertises a receive window; a receiver that
			// predates the window leaves its byte zero.
			name := "HAVE(0)"
			if fr.have.Received > 0 {
				name = "HAVE(+)"
			}
			if fr.have.Window == 0 {
				name += "(no window)"
			}
			out = append(out, name)
		case wire.TypeComplete:
			out = append(out, "COMPLETE")
		case wire.TypeAbort:
			out = append(out, "ABORT("+fr.abort.Reason.String()+")")
		default:
			out = append(out, fmt.Sprintf("type-%d", fr.typ))
		}
	}
	return out
}

// testEndpoint is one receiving endpoint behind one of its adapters.
type testEndpoint struct {
	t      testing.TB
	kind   string
	l      *Listener
	reg    *metrics.Registry // the endpoint's Options.Metrics
	proxy  *faultnet.Proxy   // set by front
	tap    *frameTap
	ctx    context.Context
	cancel context.CancelFunc
	got    chan received
	wg     sync.WaitGroup
	served chan error // Serve's return, once the endpoint serves
	once   sync.Once
}

// listen binds a fresh endpoint of the kind on a loopback port under opts;
// it closes when the test ends, or at close.
func listen(t testing.TB, kind string, opts Options) *testEndpoint {
	t.Helper()
	return listenAt(t, "127.0.0.1:0", kind, opts)
}

// listenAt is listen on addr, waiting out the moment a port just released
// takes to bind again.
func listenAt(t testing.TB, addr, kind string, opts Options) *testEndpoint {
	t.Helper()
	ep := &testEndpoint{t: t, kind: kind, reg: opts.Metrics, tap: new(frameTap),
		got: make(chan received, 1024)} // more than any test receives
	ep.ctx, ep.cancel = context.WithTimeout(context.Background(), 60*time.Second)
	bind := func() (err error) {
		ep.l, err = Listen(addr, opts)
		return err
	}
	err := bind()
	if err != nil && addr != "127.0.0.1:0" {
		waitUntil(t, time.Second, "binding "+addr, func() bool { err = bind(); return err == nil })
	}
	if err != nil {
		t.Fatalf("listen on %s: %v", addr, err)
	}
	t.Cleanup(ep.close)
	return ep
}

// front puts a faultnet proxy with faults (nil: none) in front of the
// endpoint, its control stream tapped; senders then reach the endpoint
// through it.
func (ep *testEndpoint) front(faults *faultnet.Faults) *faultnet.Proxy {
	ep.t.Helper()
	proxy, err := faultnet.NewProxy(ep.l.Addr(), faults)
	if err != nil {
		ep.t.Fatal(err)
	}
	proxy.TapControl(ep.tap)
	ep.proxy = proxy
	return proxy
}

// beforeEnd is a flush hook for a sender of n packets that calls cut in the
// flush that leaves less than a ring of them unsent, if not before. Nothing is
// resent while a packet has never been sent, so some packet then has not
// been, and a cut that blackholes the path keeps the receiver from completing
// ahead of it: a test that cuts at a fraction the sender knows acknowledged
// adds it, so that acknowledgements running late on a busy host cannot let
// the transfer finish first.
func beforeEnd(n int, cut func()) func(k, m int) {
	var emitted atomic.Int64
	return func(_, m int) {
		if emitted.Add(int64(m)) >= int64(n-DefaultIOBatch) {
			cut()
		}
	}
}

// addr is where a sender reaches the endpoint.
func (ep *testEndpoint) addr() string {
	if ep.proxy != nil {
		return ep.proxy.Addr()
	}
	return ep.l.Addr()
}

// close ends the endpoint: every transfer it runs is cancelled and has
// returned, and Serve returned nil.
func (ep *testEndpoint) close() {
	ep.once.Do(func() {
		ep.cancel()
		if ep.proxy != nil {
			ep.proxy.Close()
		}
		ep.l.Close()
		ep.wg.Wait()
		if ep.served != nil {
			if err := <-ep.served; err != nil {
				ep.t.Errorf("Serve: %v", err)
			}
		}
	})
}

// quiet requires a closed endpoint to hold no transfer tag and the process no
// sealer goroutine.
func (ep *testEndpoint) quiet() {
	if n := ep.tags(); n != 0 {
		ep.t.Errorf("%d transfer tags still registered after every transfer ended", n)
	}
	if n := sealWorkers(); n != 0 {
		ep.t.Errorf("%d sealer goroutines outlived their transfers", n)
	}
}

// take runs the adapter for n transfers, one after another — n Accepts, or n
// announcements on one session, which a failed one ends — and hands report
// each outcome.
func (ep *testEndpoint) take(n int, report func(received)) {
	if ep.kind == byAccept {
		for range n {
			obj, st, err := ep.l.Accept(ep.ctx)
			report(received{obj: obj, st: st, err: err})
		}
		return
	}
	is, err := ep.l.AcceptSession(ep.ctx)
	if err != nil {
		report(received{err: err})
		return
	}
	defer is.Close()
	for range n {
		obj, st, err := is.Next(ep.ctx)
		if report(received{obj: obj, st: st, err: err}); err != nil {
			return
		}
	}
}

// recv has the adapter take n more transfers in the background. Serve
// serves from the first recv on, and takes every transfer on its own.
func (ep *testEndpoint) recv(n int) {
	if ep.kind == byServe {
		if ep.served == nil {
			ep.served = make(chan error, 1)
			go func() {
				ep.served <- ep.l.Serve(ep.ctx, func(id uint32, obj []byte, st core.ReceiverStats) {
					ep.got <- received{id, obj, st, nil}
				})
			}()
		}
		return
	}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		ep.take(n, func(r received) { ep.got <- r })
	}()
}

// recvUntilSuccess is recv for a transfer that is interrupted and resumed:
// failed attempts (each on a session of its own) are taken and dropped until
// one delivers.
func (ep *testEndpoint) recvUntilSuccess() {
	if ep.kind == byServe {
		ep.recv(1)
		return
	}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		for done := false; !done; {
			ep.take(1, func(r received) {
				if done = r.err == nil || ep.ctx.Err() != nil; done {
					ep.got <- r
				}
			})
		}
	}()
}

// result waits for the next outcome the adapter reports. Serve reports
// nothing for a failed transfer; ok is false then, and the caller reads the
// verdict from the metrics record instead.
func (ep *testEndpoint) result(failing bool) (r received, ok bool) {
	ep.t.Helper()
	if ep.kind == byServe && failing {
		return received{}, false
	}
	select {
	case r := <-ep.got:
		return r, true
	case <-time.After(30 * time.Second):
		ep.t.Fatal("the adapter never reported the transfer")
		return received{}, false
	}
}

// delivered is result for a transfer that must succeed with obj.
func (ep *testEndpoint) delivered(obj []byte) received {
	ep.t.Helper()
	r, _ := ep.result(false)
	if r.err != nil || !bytes.Equal(r.obj, obj) {
		ep.t.Fatalf("delivery: err=%v intact=%v", r.err, bytes.Equal(r.obj, obj))
	}
	return r
}

// byID waits for n deliveries from Serve and returns them by transfer id.
func (ep *testEndpoint) byID(n int) map[uint32]received {
	ep.t.Helper()
	got := map[uint32]received{}
	for range n {
		r, _ := ep.result(false)
		got[r.id] = r
	}
	return got
}

// push has the adapter take one transfer while a Send of obj under sopts runs
// against the endpoint, and returns what both ends reported.
func (ep *testEndpoint) push(obj []byte, cfg core.Config, sopts Options) pushed {
	ep.t.Helper()
	ep.recv(1)
	sst, serr := Send(ep.ctx, ep.addr(), obj, cfg, sopts)
	r, _ := ep.result(serr != nil)
	return pushed{r, sst, serr}
}

// pushOK is push for a transfer that must complete, intact, on both ends.
func (ep *testEndpoint) pushOK(obj []byte, cfg core.Config, sopts Options) pushed {
	ep.t.Helper()
	p := ep.push(obj, cfg, sopts)
	if p.serr != nil || p.err != nil || !bytes.Equal(p.obj, obj) {
		ep.t.Fatalf("send: %v, receive: %v, intact: %v", p.serr, p.err, bytes.Equal(p.obj, obj))
	}
	return p
}

// push sends obj under sopts to a fresh Listener bound under ropts, and
// returns what arrived and both ends' statistics; the transfer must complete
// intact. The IOCounters either Options names are filled as usual.
func push(t testing.TB, obj []byte, cfg core.Config, sopts, ropts Options) pushed {
	t.Helper()
	ep := listen(t, byAccept, ropts)
	defer ep.close()
	return ep.pushOK(obj, cfg, sopts)
}

// fresh is the receive-side metrics record's count of packets placed for a
// transfer (zero before it has one).
func (ep *testEndpoint) fresh(id uint32) int64 {
	ts, _ := ep.reg.Snapshot().Find(id, obs.RoleReceiver)
	return ts.Fresh
}

// record waits for the receive-side metrics record of a transfer to satisfy
// ok — a terminal outcome, or progress on a running one.
func (ep *testEndpoint) record(id uint32, what string, ok func(metrics.TransferSnapshot) bool) metrics.TransferSnapshot {
	ep.t.Helper()
	var ts metrics.TransferSnapshot
	var found bool
	waitUntil(ep.t, 10*time.Second, lazy(func() string {
		return fmt.Sprintf("transfer %d %s: found=%v record=%+v", id, what, found, ts)
	}), func() bool {
		ts, found = ep.reg.Snapshot().Find(id, obs.RoleReceiver)
		return found && ok(ts)
	})
	return ts
}

func (ep *testEndpoint) completed(id uint32) metrics.TransferSnapshot {
	ep.t.Helper()
	return ep.record(id, "completed", func(ts metrics.TransferSnapshot) bool { return ts.Outcome == metrics.OutcomeCompleted })
}

// aborted requires the record to end aborted with the given reason.
func (ep *testEndpoint) aborted(id uint32, reason wire.AbortReason) metrics.TransferSnapshot {
	ep.t.Helper()
	ts := ep.record(id, "ended", func(ts metrics.TransferSnapshot) bool { return ts.Outcome != metrics.OutcomeRunning })
	if ts.Outcome != metrics.OutcomeAborted || wire.AbortReason(ts.AbortReason) != reason {
		ep.t.Fatalf("transfer %d recorded %v (%s), want aborted (%s)", id, ts.Outcome, wire.AbortReason(ts.AbortReason), reason)
	}
	return ts
}

// placed waits until the transfer has placed at least one packet.
func (ep *testEndpoint) placed(id uint32) {
	ep.t.Helper()
	ep.record(id, "placed a packet", func(ts metrics.TransferSnapshot) bool { return ts.Fresh > 0 })
}

// wantFrames requires the control frames the senders saw to be exactly want
// (in order, or as a multiset when several connections interleave), and to
// stay that way.
func (ep *testEndpoint) wantFrames(ordered bool, want ...string) {
	ep.t.Helper()
	same := func() bool {
		got, want := ep.tap.frames(), slices.Clone(want)
		if !ordered {
			slices.Sort(got)
			slices.Sort(want)
		}
		return slices.Equal(got, want)
	}
	saw := lazy(func() string {
		return fmt.Sprintf("control frames the senders saw: %v, want %v", ep.tap.frames(), want)
	})
	waitUntil(ep.t, 5*time.Second, saw, same)
	time.Sleep(20 * time.Millisecond) // scenario: a frame too many would be on its way
	if !same() {
		ep.t.Fatal(saw)
	}
}

// retains reports whether the endpoint's store holds a partial entry for
// obj's content.
func (ep *testEndpoint) retains(obj []byte) bool { return ep.retainedOf(obj) > 0 }

// retainedOf is how many packets of obj's content the endpoint's store
// holds in a partial entry (zero: it holds none for it).
func (ep *testEndpoint) retainedOf(obj []byte) int {
	if e := ep.l.store.entryOf(core.ContentID(obj)); e != nil && !e.whole() {
		return e.received
	}
	return 0
}

// tags counts the transfer tags registered with the endpoint.
func (ep *testEndpoint) tags() int {
	ep.l.mu.Lock()
	defer ep.l.mu.Unlock()
	return len(ep.l.inbound)
}

// registered waits until a transfer has registered its tags.
func (ep *testEndpoint) registered() {
	ep.t.Helper()
	waitUntil(ep.t, 10*time.Second, "a transfer registering", func() bool { return ep.tags() > 0 })
}

// seedRetained plants a partial entry for obj's content holding its first
// `have` packets, as an earlier failed transfer would have left it.
func (ep *testEndpoint) seedRetained(obj []byte, ps, have int) {
	words := make([]uint64, (core.NumPackets(int64(len(obj)), ps)+63)/64)
	for i := 0; i < have; i++ {
		words[i/64] |= 1 << (i % 64)
	}
	held := make([]byte, len(obj))
	copy(held, obj[:min(have*ps, len(obj))])
	ep.l.store.hold(&entry{content: core.ContentID(obj), packetSize: ps, obj: held, words: words, received: have})
}

// announceFor is a single-flow announcement of obj under id: its CHECK, then
// the HELLO.
func announceFor(id uint32, obj []byte, ps int) []byte {
	check := wire.AppendCheck(nil, &wire.Check{Flags: wire.CheckFlagDedup, Transfer: id,
		ObjectSize: uint64(len(obj)), PacketSize: uint32(ps), Digest: core.ContentID(obj)})
	return wire.AppendHello(check, &wire.Hello{Transfer: id, ObjectSize: uint64(len(obj)), PacketSize: uint32(ps)})
}

// dialData is a data socket connected to addr's UDP port.
func dialData(t testing.TB, addr string) *net.UDPConn {
	t.Helper()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	udp, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { udp.Close() })
	return udp
}

// udpPair is a connected data socket and the bound socket it writes to, with
// generous kernel buffers: for tests that drive the engines or batchio
// without an endpoint.
func udpPair(t testing.TB) (snd, peer *net.UDPConn) {
	t.Helper()
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	snd = dialData(t, peer.LocalAddr().String())
	peer.SetReadBuffer(8 << 20)
	snd.SetWriteBuffer(8 << 20)
	return snd, peer
}

// rawPeer is a hand-driven sender: a control connection carrying whatever
// announcement the test wrote, and a data socket.
type rawPeer struct {
	t    testing.TB
	ctl  *net.TCPConn
	udp  *net.UDPConn
	sent int // datagrams put on the data socket
}

func dialRaw(t testing.TB, addr string, announcement []byte) *rawPeer {
	t.Helper()
	ctl, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	if _, err := ctl.Write(announcement); err != nil {
		t.Fatal(err)
	}
	return &rawPeer{t: t, ctl: ctl.(*net.TCPConn), udp: dialData(t, addr)}
}

// accepted reads the answer to an announcement of content the receiver held
// nothing of: a HAVE of no packets.
func (r *rawPeer) accepted() {
	r.t.Helper()
	if f := r.read(); f.typ != wire.TypeHave || f.have.Received != 0 {
		r.t.Fatalf("announcement answered with frame type %d holding %d packets", f.typ, f.have.Received)
	}
}

// refused reads the answer to an announcement the receiver turned down: an
// ABORT with reason.
func (r *rawPeer) refused(reason wire.AbortReason) {
	r.t.Helper()
	if f := r.read(); f.typ != wire.TypeAbort || f.abort.Reason != reason {
		r.t.Fatalf("answer = type %d reason %v, want ABORT(%v)", f.typ, f.abort.Reason, reason)
	}
}

// read returns the receiver's next control frame.
func (r *rawPeer) read() controlFrame {
	r.t.Helper()
	r.ctl.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := readControlFrame(r.ctl)
	if err != nil {
		r.t.Fatalf("no control frame: %v", err)
	}
	return f
}

// data puts packets [from, to) of obj on the data socket under tag.
func (r *rawPeer) data(tag uint32, obj []byte, ps, from, to int) {
	r.t.Helper()
	total := core.NumPackets(int64(len(obj)), ps)
	for seq := from; seq < to; seq++ {
		pkt := wire.AppendData(nil, &wire.Data{Transfer: tag, Seq: uint32(seq), Total: uint32(total),
			Payload: obj[seq*ps : min((seq+1)*ps, len(obj))]})
		if _, err := r.udp.Write(pkt); err != nil {
			r.t.Fatal(err)
		}
		r.sent++
	}
}

// dataUntil keeps putting packets [from, to) on the wire until done reports
// true: a raw peer reads no acknowledgements, so a datagram dropped on the
// way (the proxy's socket buffer is small, the host may be busy) is repaired
// only by sending it again.
func (r *rawPeer) dataUntil(tag uint32, obj []byte, ps, from, to int, done func() bool) {
	r.t.Helper()
	waitUntil(r.t, 20*time.Second, fmt.Sprintf("packets [%d, %d) of transfer %d having their effect", from, to, tag), func() bool {
		if done() {
			return true
		}
		r.data(tag, obj, ps, from, to)
		return false
	})
}

// reset kills the control connection with an RST, and waits until the
// receiver's end of it has left the kernel's connection table: the next write
// the receiver makes on it fails.
func (r *rawPeer) reset() {
	r.t.Helper()
	local, remote := r.ctl.LocalAddr().(*net.TCPAddr).Port, r.ctl.RemoteAddr().(*net.TCPAddr).Port
	r.ctl.SetLinger(0)
	r.ctl.Close()
	waitUntil(r.t, 10*time.Second, "the reset landing", func() bool { return !tcpConnected(remote, local) })
}

// tcpConnected reports whether the kernel holds a TCP connection from local
// port to remote port. It reads Linux's tables, and reports false where there
// are none.
func tcpConnected(local, remote int) bool {
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		b, _ := os.ReadFile(table)
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && strings.HasSuffix(f[1], fmt.Sprintf(":%04X", local)) && strings.HasSuffix(f[2], fmt.Sprintf(":%04X", remote)) {
				return true
			}
		}
	}
	return false
}

// fakeReceiver is a hand-driven peer speaking just enough of the control
// protocol to lure a real sender into a chosen failure: it completes the
// handshake and then does whatever the test says — typically nothing.
type fakeReceiver struct {
	t    *testing.T
	tcp  *net.TCPListener
	udp  *net.UDPConn // nil when the test wants ECONNREFUSED on data writes
	ctl  *net.TCPConn
	done chan struct{}
	// window is the receive window the answer advertises (zero: none).
	window wire.Window
}

// newFakeReceiver binds the TCP control port, optionally with a UDP socket
// on the same port swallowing (never reading) data packets.
func newFakeReceiver(t *testing.T, withUDP bool) *fakeReceiver {
	t.Helper()
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReceiver{t: t, tcp: tl, done: make(chan struct{})}
	if withUDP {
		port := tl.Addr().(*net.TCPAddr).Port
		f.udp, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		if err != nil {
			tl.Close()
			t.Fatal(err)
		}
	}
	t.Cleanup(f.close)
	return f
}

func (f *fakeReceiver) addr() string { return f.tcp.Addr().String() }

func (f *fakeReceiver) close() {
	f.tcp.Close()
	if f.udp != nil {
		f.udp.Close()
	}
	if f.ctl != nil {
		f.ctl.Close()
	}
}

// acceptHandshake accepts the sender's control connection, consumes its
// announcement — CHECK, then HELLO — and answers it with a miss that accepts
// the transfer, like a real cache-empty receiver, then goes silent.
func (f *fakeReceiver) acceptHandshake() {
	defer close(f.done)
	f.tcp.SetDeadline(time.Now().Add(10 * time.Second))
	ctl, err := f.tcp.AcceptTCP()
	if err != nil {
		f.t.Errorf("fake receiver accept: %v", err)
		return
	}
	f.ctl = ctl
	ctl.SetReadDeadline(time.Now().Add(10 * time.Second))
	var transfer uint32
	for _, want := range []uint8{wire.TypeCheck, wire.TypeHello} {
		frame, err := readControlFrame(ctl)
		if err != nil || frame.typ != want {
			f.t.Errorf("fake receiver announcement: type %d (want %d), %v", frame.typ, want, err)
			return
		}
		transfer = frame.hello.Transfer
	}
	if err := writeControl(ctl, wire.AppendHave(nil, &wire.Have{Transfer: transfer, Words: []uint64{0}, Window: f.window})); err != nil {
		f.t.Errorf("fake receiver answer: %v", err)
	}
}

// expectAbort reads one more control frame and checks it is an ABORT with
// the given reason.
func (f *fakeReceiver) expectAbort(reason wire.AbortReason) {
	f.t.Helper()
	<-f.done
	f.ctl.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := readControlFrame(f.ctl)
	if err != nil {
		f.t.Fatalf("reading abort: %v", err)
	}
	if frame.typ != wire.TypeAbort || frame.abort.Reason != reason {
		f.t.Fatalf("got control frame type %d reason %v, want ABORT %v",
			frame.typ, frame.abort.Reason, reason)
	}
}

// readData reads count DATA datagrams from the fake receiver's UDP socket,
// each within per, returning the sender's data-flow address.
func (f *fakeReceiver) readData(count int, per time.Duration) (netip.AddrPort, error) {
	buf := make([]byte, maxDatagram)
	var from netip.AddrPort
	for i := 0; i < count; i++ {
		f.udp.SetReadDeadline(time.Now().Add(per))
		n, addr, err := f.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			return from, err
		}
		if _, err := wire.DecodeData(buf[:n]); err != nil {
			return from, err
		}
		from = addr
	}
	return from, nil
}
