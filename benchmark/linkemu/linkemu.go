// Package linkemu is a real-socket WAN emulator for one FOBS endpoint: a
// relay that binds TCP and UDP on one loopback port (the runtime's channel
// layout) and forwards both to an upstream address, imposing a fixed
// one-way delay on all three flows — data datagrams, acknowledgement
// datagrams and the TCP control stream — plus, on the data direction, a
// token-bucket bottleneck with a drop-tail queue and, on both datagram
// directions, seeded Bernoulli loss.
//
// It exists because faultnet.Proxy delays neither acknowledgements nor the
// control connection, so a transfer through it pays no round trips: the
// handshake, the ack clock and the completion signal all run at loopback
// speed and the paper's ANL↔LCSE setting (26 ms RTT) cannot be reproduced.
package linkemu

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// ipUDPOverhead is the per-datagram IP+UDP header the bottleneck charges on
// top of the payload, matching the runtime's own on-the-wire accounting.
const ipUDPOverhead = 28

// Config describes the emulated path.
type Config struct {
	// Delay is the one-way latency added to every flow.
	Delay time.Duration
	// RateBps is the data-direction bottleneck in bits per second; zero
	// means unlimited (delay and loss only).
	RateBps float64
	// Queue is the drop-tail queue depth expressed as drain time at
	// RateBps: a datagram that would wait longer is dropped.
	Queue time.Duration
	// Loss is the independent drop probability applied to every data and
	// acknowledgement datagram, before the bottleneck.
	Loss float64
	// Seed fixes the loss streams: the same seed drops the same datagram
	// indices in each direction.
	Seed int64
}

// Stats counts datagrams and control bytes through the emulator.
// Conservation, once traffic has drained: DataIn = DataOut + DataLost +
// DataQueueDrops, AckIn = AckOut + AckLost, CtlIn = CtlOut.
type Stats struct {
	DataIn, DataOut, DataLost, DataQueueDrops int64
	DataBytesOut                              int64
	AckIn, AckOut, AckLost                    int64
	CtlIn, CtlOut                             int64
}

type counters struct {
	dataIn, dataOut, dataLost, dataQueueDrops atomic.Int64
	dataBytesOut                              atomic.Int64
	ackIn, ackOut, ackLost                    atomic.Int64
	ctlIn, ctlOut                             atomic.Int64
}

// inFlight bounds each delay line. At 100 Mb/s a 20 ms queue plus 13 ms of
// propagation holds ~400 one-KiB datagrams; 8192 leaves an order of
// magnitude of headroom before the line itself (not the modelled queue)
// would drop.
const inFlight = 8192

// flowIdle is how long a datagram flow may carry nothing in either
// direction before its upstream socket and acknowledgement relay are
// released (on top of Delay+Queue, so nothing of the flow is still in a
// delay line). Every udprt.Send opens a flow from a fresh port; without
// this the emulator would grow by a socket, a goroutine and a 64 KiB buffer
// per transfer it ever carried. A variable so that a test need not wait it
// out.
var flowIdle = 2 * time.Second

// flow is one client's datagram flow: its socket toward the upstream and
// when it last carried a datagram either way.
type flow struct {
	conn *net.UDPConn
	last atomic.Int64 // UnixNano
}

// packet is one datagram waiting out its delay.
type packet struct {
	at  time.Time
	buf *[]byte
	n   int
	// Data direction: the upstream link socket to write on. Ack
	// direction: the client address to write to from the front socket.
	link *net.UDPConn
	to   netip.AddrPort
}

// Link is a running emulator.
type Link struct {
	cfg      Config
	upstream string
	upUDP    *net.UDPAddr
	tcp      *net.TCPListener
	udp      *net.UDPConn
	c        counters

	dataQ, ackQ chan packet
	pool        sync.Pool

	mu       sync.Mutex
	links    map[netip.AddrPort]*flow
	conns    map[net.Conn]struct{} // open control connections, both sides
	closed   bool
	linkFree time.Time // when the bottleneck finishes serialising its queue
	dataRand *rand.Rand
	ackRand  *rand.Rand

	done chan struct{}
	wg   sync.WaitGroup
}

// New starts an emulator in front of the FOBS endpoint at upstream
// (host:port serving both TCP control and UDP data).
func New(upstream string, cfg Config) (*Link, error) {
	upUDP, err := net.ResolveUDPAddr("udp", upstream)
	if err != nil {
		return nil, fmt.Errorf("linkemu: resolve upstream %q: %w", upstream, err)
	}
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("linkemu: listen control: %w", err)
	}
	port := tl.Addr().(*net.TCPAddr).Port
	ul, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		tl.Close()
		return nil, fmt.Errorf("linkemu: listen data: %w", err)
	}
	// Best effort, like the runtime's own sockets: the emulator must not be
	// the place where a greedy sender's burst is lost unaccounted.
	_ = ul.SetReadBuffer(4 << 20)
	_ = ul.SetWriteBuffer(4 << 20)
	l := &Link{
		cfg:      cfg,
		upstream: upstream,
		upUDP:    upUDP,
		tcp:      tl,
		udp:      ul,
		dataQ:    make(chan packet, inFlight),
		ackQ:     make(chan packet, inFlight),
		links:    make(map[netip.AddrPort]*flow),
		conns:    make(map[net.Conn]struct{}),
		dataRand: rand.New(rand.NewSource(cfg.Seed)),
		ackRand:  rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		done:     make(chan struct{}),
	}
	l.pool.New = func() any { b := make([]byte, 64<<10); return &b }
	l.wg.Add(4)
	go l.acceptLoop()
	go l.dataLoop()
	go l.deliver(l.dataQ, func(p packet) {
		if _, err := p.link.Write((*p.buf)[:p.n]); err == nil {
			l.c.dataOut.Add(1)
			l.c.dataBytesOut.Add(int64(p.n))
		}
	})
	go l.deliver(l.ackQ, func(p packet) {
		if _, err := l.udp.WriteToUDPAddrPort((*p.buf)[:p.n], p.to); err == nil {
			l.c.ackOut.Add(1)
		}
	})
	return l, nil
}

// Addr is the address senders dial instead of the upstream's.
func (l *Link) Addr() string { return l.tcp.Addr().String() }

// Stats returns a snapshot of the counters.
func (l *Link) Stats() Stats {
	return Stats{
		DataIn: l.c.dataIn.Load(), DataOut: l.c.dataOut.Load(),
		DataLost: l.c.dataLost.Load(), DataQueueDrops: l.c.dataQueueDrops.Load(),
		DataBytesOut: l.c.dataBytesOut.Load(),
		AckIn:        l.c.ackIn.Load(), AckOut: l.c.ackOut.Load(), AckLost: l.c.ackLost.Load(),
		CtlIn: l.c.ctlIn.Load(), CtlOut: l.c.ctlOut.Load(),
	}
}

// Close stops every relay goroutine and waits for them; datagrams still in
// a delay line are discarded.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.done)
	for _, f := range l.links {
		f.conn.Close()
	}
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.udp.Close()
	err := l.tcp.Close()
	l.wg.Wait()
	return err
}

// releaseQuantum is the shortest sleep a delay line takes. At 100 Mb/s
// datagrams are due every 80 µs; waking for each would make the emulator's
// own timer traffic the largest CPU cost of the workload it carries. A
// line that has to wait waits at least this long and then releases
// everything that has come due, so a datagram is up to a quantum late.
const releaseQuantum = 250 * time.Microsecond

// deliver drains one delay line in order, sleeping until each datagram's
// release instant. Releases are FIFO because every datagram on a line is
// delayed by the same amount past a monotone departure time. The sleep is
// a plain time.Sleep (allocation-free); Close therefore waits out at most
// one Delay+Queue.
func (l *Link) deliver(q chan packet, write func(packet)) {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case p := <-q:
			if d := time.Until(p.at); d > 0 {
				if d < releaseQuantum {
					d = releaseQuantum
				}
				time.Sleep(d)
			}
			write(p)
			l.pool.Put(p.buf)
		}
	}
}

// lose draws from one direction's loss stream.
func (l *Link) lose(r *rand.Rand) bool {
	if l.cfg.Loss <= 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return r.Float64() < l.cfg.Loss
}

// depart runs the bottleneck for one datagram of n payload bytes arriving
// now: it returns when the datagram finishes serialising, or false when the
// drop-tail queue is full.
func (l *Link) depart(now time.Time, n int) (time.Time, bool) {
	if l.cfg.RateBps <= 0 {
		return now, true
	}
	tx := time.Duration(float64(n+ipUDPOverhead) * 8 / l.cfg.RateBps * float64(time.Second))
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.linkFree
	if start.Before(now) {
		start = now
	}
	if start.Sub(now) > l.cfg.Queue {
		return time.Time{}, false
	}
	l.linkFree = start.Add(tx)
	return l.linkFree, true
}

// dataLoop reads client datagrams off the front socket and commits each to
// the data delay line (or to one of the two drop counters).
func (l *Link) dataLoop() {
	defer l.wg.Done()
	for {
		bp := l.pool.Get().(*[]byte)
		n, from, err := l.udp.ReadFromUDPAddrPort(*bp)
		if err != nil {
			return
		}
		l.c.dataIn.Add(1)
		if l.lose(l.dataRand) {
			l.c.dataLost.Add(1)
			l.pool.Put(bp)
			continue
		}
		now := time.Now()
		out, ok := l.depart(now, n)
		link := l.link(from)
		if !ok || link == nil {
			l.c.dataQueueDrops.Add(1)
			l.pool.Put(bp)
			continue
		}
		select {
		case l.dataQ <- packet{at: out.Add(l.cfg.Delay), buf: bp, n: n, link: link}:
		default:
			l.c.dataQueueDrops.Add(1)
			l.pool.Put(bp)
		}
	}
}

// link returns the upstream data socket for one client flow, creating it —
// and its acknowledgement relay — on first use, and notes the flow is alive.
func (l *Link) link(client netip.AddrPort) *net.UDPConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	f, ok := l.links[client]
	if !ok {
		c, err := net.DialUDP("udp", nil, l.upUDP)
		if err != nil {
			return nil
		}
		f = &flow{conn: c}
		l.links[client] = f
		l.wg.Add(1)
		go l.ackLoop(f, client)
	}
	f.last.Store(time.Now().UnixNano())
	return f.conn
}

// expire releases a flow that has been silent for idle; it reports false,
// and when to look again, if the flow carried something in the meantime.
func (l *Link) expire(f *flow, client netip.AddrPort, idle time.Duration) (bool, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if due := time.Unix(0, f.last.Load()).Add(idle); time.Now().Before(due) {
		return false, due
	}
	delete(l.links, client)
	f.conn.Close()
	return true, time.Time{}
}

// ackLoop relays the upstream's datagrams (acknowledgements) for one flow
// back toward its client through the ack delay line, until the flow has
// been idle for flowIdle or the emulator closes.
func (l *Link) ackLoop(f *flow, client netip.AddrPort) {
	defer l.wg.Done()
	idle := flowIdle + l.cfg.Delay + l.cfg.Queue
	f.conn.SetReadDeadline(time.Now().Add(idle))
	for {
		bp := l.pool.Get().(*[]byte)
		n, err := f.conn.Read(*bp)
		if err != nil {
			l.pool.Put(bp)
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				return // closed
			}
			gone, again := l.expire(f, client, idle)
			if gone {
				return
			}
			f.conn.SetReadDeadline(again)
			continue
		}
		f.last.Store(time.Now().UnixNano())
		l.c.ackIn.Add(1)
		if l.lose(l.ackRand) {
			l.c.ackLost.Add(1)
			l.pool.Put(bp)
			continue
		}
		select {
		case l.ackQ <- packet{at: time.Now().Add(l.cfg.Delay), buf: bp, n: n, to: client}:
		default:
			l.c.ackLost.Add(1)
			l.pool.Put(bp)
		}
	}
}

// acceptLoop relays control connections to the upstream TCP endpoint, each
// direction through its own delayed pipe.
func (l *Link) acceptLoop() {
	defer l.wg.Done()
	for {
		cl, err := l.tcp.AcceptTCP()
		if err != nil {
			return
		}
		upRaw, err := net.Dial("tcp", l.upstream)
		if err != nil {
			cl.Close()
			continue
		}
		up := upRaw.(*net.TCPConn)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			cl.Close()
			up.Close()
			return
		}
		l.conns[cl], l.conns[up] = struct{}{}, struct{}{}
		l.wg.Add(2)
		l.mu.Unlock()
		// The pair is released once both directions have relayed their EOF.
		open := new(atomic.Int32)
		open.Store(2)
		go l.pipe(up, cl, open)
		go l.pipe(cl, up, open)
	}
}

// chunk is one control-stream read waiting out its delay; a nil data marks
// the source's EOF, which is delayed like any byte.
type chunk struct {
	at   time.Time
	data []byte
}

// pipe relays one direction of a control stream: a reader stamps each chunk
// with its release time, this goroutine writes them in order and
// half-closes the destination when the (delayed) EOF comes through.
func (l *Link) pipe(dst, src *net.TCPConn, open *atomic.Int32) {
	defer l.wg.Done()
	defer func() {
		if open.Add(-1) == 0 {
			dst.Close()
			src.Close()
			l.mu.Lock()
			delete(l.conns, dst)
			delete(l.conns, src)
			l.mu.Unlock()
		}
	}()
	// Control frames are tens of bytes and a transfer exchanges a handful;
	// 64 chunks in flight is far beyond any handshake.
	q := make(chan chunk, 64)
	go func() {
		defer close(q)
		for {
			buf := make([]byte, 4096)
			n, err := src.Read(buf)
			if n > 0 {
				l.c.ctlIn.Add(int64(n))
				q <- chunk{at: time.Now().Add(l.cfg.Delay), data: buf[:n]}
			}
			if err != nil {
				q <- chunk{at: time.Now().Add(l.cfg.Delay)}
				return
			}
		}
	}()
	closing := false
	for ch := range q {
		if closing {
			continue // keep draining so the reader can exit
		}
		if d := time.Until(ch.at); d > 0 {
			select {
			case <-l.done:
				closing = true
				continue
			case <-time.After(d):
			}
		}
		if ch.data == nil {
			dst.CloseWrite()
			continue
		}
		if _, err := dst.Write(ch.data); err != nil {
			closing = true
			continue
		}
		l.c.ctlOut.Add(int64(len(ch.data)))
	}
}
