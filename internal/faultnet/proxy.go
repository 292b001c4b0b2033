package faultnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Proxy is a loopback man-in-the-middle for one FOBS endpoint: it binds a
// TCP listener and a UDP socket on the same ephemeral port (the runtime's
// channel layout) and relays both to an upstream address. Datagrams
// travelling client→upstream pass through a Faults injector; the reverse
// (acknowledgement) path is relayed untouched. The control stream can be
// severed mid-transfer and the data path black-holed, simulating the peer
// or the path dying while both processes live.
//
// Point a sender at Proxy.Addr() instead of the real receiver address;
// everything else is unchanged, which is what makes the faults honest —
// the runtime cannot tell it is under test.
type Proxy struct {
	upstream *net.UDPAddr
	tcpAddr  string
	tcp      *net.TCPListener
	udp      *net.UDPConn
	faults   *Faults

	blackhole atomic.Bool
	accepted  atomic.Int64 // control connections clients opened

	mu     sync.Mutex
	tap    io.Writer               // see TapControl
	links  map[string]*net.UDPConn // client addr → upstream data socket
	pipes  []*net.TCPConn          // live control conns, both halves
	closed bool
}

// NewProxy builds a proxy in front of the FOBS endpoint at upstream
// (host:port serving both TCP control and UDP data). A nil faults relays
// everything untouched.
func NewProxy(upstream string, faults *Faults) (*Proxy, error) {
	if faults == nil {
		faults = New(Policy{})
	}
	upUDP, err := net.ResolveUDPAddr("udp", upstream)
	if err != nil {
		return nil, fmt.Errorf("faultnet: resolve upstream %q: %w", upstream, err)
	}
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen control: %w", err)
	}
	port := tl.Addr().(*net.TCPAddr).Port
	ul, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		tl.Close()
		return nil, fmt.Errorf("faultnet: listen data: %w", err)
	}
	p := &Proxy{
		upstream: upUDP,
		tcpAddr:  upstream,
		tcp:      tl,
		udp:      ul,
		faults:   faults,
		links:    make(map[string]*net.UDPConn),
	}
	go p.acceptLoop()
	go p.dataLoop()
	return p, nil
}

// Addr is the address senders should dial instead of the upstream's.
func (p *Proxy) Addr() string { return p.tcp.Addr().String() }

// Accepted counts the control connections clients have opened through the
// proxy: a sender's dials, as the endpoint behind it sees them.
func (p *Proxy) Accepted() int { return int(p.accepted.Load()) }

// Stats reports the injector's counters.
func (p *Proxy) Stats() Stats { return p.faults.Stats() }

// SetBlackhole toggles total datagram loss in both directions, leaving the
// control stream up: the "path died under the transfer" failure.
func (p *Proxy) SetBlackhole(on bool) { p.blackhole.Store(on) }

// TapControl copies every byte the upstream writes on a control connection
// to w, before the client can see it, so a test can assert the control
// frames a sender was answered with. It covers connections accepted from now
// on; w must be safe for use from several goroutines.
func (p *Proxy) TapControl(w io.Writer) {
	p.mu.Lock()
	p.tap = w
	p.mu.Unlock()
}

// SeverControl tears down every relayed control connection immediately,
// simulating the peer process dying mid-transfer.
func (p *Proxy) SeverControl() {
	p.mu.Lock()
	pipes := p.pipes
	p.pipes = nil
	p.mu.Unlock()
	for _, c := range pipes {
		c.Close()
	}
}

// Close shuts the proxy down.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	links := p.links
	p.links = map[string]*net.UDPConn{}
	p.mu.Unlock()
	p.SeverControl()
	for _, l := range links {
		l.Close()
	}
	p.udp.Close()
	return p.tcp.Close()
}

// acceptLoop relays control connections to the upstream TCP endpoint.
func (p *Proxy) acceptLoop() {
	for {
		cl, err := p.tcp.AcceptTCP()
		if err != nil {
			return
		}
		p.accepted.Add(1)
		upRaw, err := net.Dial("tcp", p.tcpAddr)
		if err != nil {
			cl.Close()
			continue
		}
		up := upRaw.(*net.TCPConn)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			cl.Close()
			up.Close()
			return
		}
		p.pipes = append(p.pipes, cl, up)
		tap := p.tap
		p.mu.Unlock()
		go pipe(up, cl, nil)
		go pipe(cl, up, tap)
	}
}

// pipe relays one direction of a control stream byte-by-byte (control
// frames are tiny; latency matters more than throughput here) and
// half-closes the destination at EOF. A non-nil tap sees the bytes first.
func pipe(dst, src *net.TCPConn, tap io.Writer) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if tap != nil {
				tap.Write(buf[:n])
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.CloseWrite()
}

// dataLoop relays datagrams from clients toward the upstream endpoint,
// applying the fault policy on the way.
func (p *Proxy) dataLoop() {
	buf := make([]byte, 64<<10)
	for {
		n, from, err := p.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if p.blackhole.Load() {
			continue
		}
		link := p.link(from)
		if link == nil {
			continue // proxy closing, or upstream dial failed
		}
		p.faults.Apply(buf[:n], func(pkt []byte) {
			// A late (delayed/held) send can race teardown; the error is
			// indistinguishable from loss, which suits a fault injector.
			link.Write(pkt)
		})
	}
}

// link returns the upstream data socket for one client, creating it — and
// its reverse relay — on first use.
func (p *Proxy) link(client *net.UDPAddr) *net.UDPConn {
	key := client.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if l, ok := p.links[key]; ok {
		return l
	}
	l, err := net.DialUDP("udp", nil, p.upstream)
	if err != nil {
		return nil
	}
	p.links[key] = l
	go p.reverseLoop(l, client)
	return l
}

// reverseLoop relays the upstream's responses (acknowledgements) back to
// one client, untouched: loss on the ack path is already exercised by the
// protocol's cumulative bitmap acks, and a clean reverse path keeps the
// injected data-loss rate exact.
func (p *Proxy) reverseLoop(l *net.UDPConn, client *net.UDPAddr) {
	buf := make([]byte, 64<<10)
	for {
		n, err := l.Read(buf)
		if err != nil {
			return
		}
		if p.blackhole.Load() {
			continue
		}
		if _, err := p.udp.WriteToUDP(buf[:n], client); err != nil {
			return
		}
	}
}
