package linkemu

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sort"
	"testing"
	"time"
)

// upstream is a stand-in FOBS endpoint: a UDP socket and a TCP listener on
// one port. Datagrams are echoed back to their source (the emulator's link
// socket), so one client sees both directions of the path.
type upstream struct {
	udp  *net.UDPConn
	tcp  *net.TCPListener
	seen chan []byte // datagrams in arrival order
}

func newUpstream(t *testing.T, echo bool) *upstream {
	t.Helper()
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ul, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: tl.Addr().(*net.TCPAddr).Port})
	if err != nil {
		t.Fatal(err)
	}
	ul.SetReadBuffer(4 << 20)
	// Sized to the largest burst a test sends, so the reader never blocks.
	u := &upstream{udp: ul, tcp: tl, seen: make(chan []byte, 4096)}
	t.Cleanup(func() { ul.Close(); tl.Close() })
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, from, err := ul.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			u.seen <- append([]byte(nil), buf[:n]...)
			if echo {
				ul.WriteToUDPAddrPort(buf[:n], from)
			}
		}
	}()
	return u
}

func (u *upstream) addr() string { return u.tcp.Addr().String() }

func startLink(t *testing.T, u *upstream, cfg Config) (*Link, *net.UDPConn) {
	t.Helper()
	l, err := New(u.addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c, err := net.Dial("udp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return l, c.(*net.UDPConn)
}

// TestDelayOnAllThreeFlows checks the fixed one-way delay on data, on the
// acknowledgement direction and on the control stream, each within 1 ms
// (by median: a single sample can catch a scheduler hiccup).
func TestDelayOnAllThreeFlows(t *testing.T) {
	const delay = 13 * time.Millisecond
	u := newUpstream(t, true)
	l, c := startLink(t, u, Config{Delay: delay})

	const samples = 9
	var there, back []float64
	buf := make([]byte, 64)
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		c.Write([]byte("ping"))
		select {
		case <-u.seen:
			there = append(there, float64(time.Since(t0))/1e6)
		case <-time.After(time.Second):
			t.Fatal("datagram never reached the upstream")
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c.Read(buf); err != nil {
			t.Fatalf("echo never came back: %v", err)
		}
		back = append(back, float64(time.Since(t0))/1e6)
	}
	within := func(what string, v []float64, want time.Duration) {
		t.Helper()
		sort.Float64s(v)
		got := v[len(v)/2]
		if d := got - float64(want)/1e6; d < -1 || d > 1 {
			t.Errorf("%s took %.2f ms (median of %d), want %v ± 1 ms", what, got, len(v), want)
		}
	}
	within("data, one way", there, delay)
	within("data out and ack back", back, 2*delay)

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := u.tcp.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	ctl, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	up := <-accepted
	defer up.Close()
	var out, in []float64
	one := make([]byte, 1)
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		ctl.Write([]byte{1})
		if _, err := io.ReadFull(up, one); err != nil {
			t.Fatal(err)
		}
		out = append(out, float64(time.Since(t0))/1e6)
		t1 := time.Now()
		up.Write([]byte{2})
		if _, err := io.ReadFull(ctl, one); err != nil {
			t.Fatal(err)
		}
		in = append(in, float64(time.Since(t1))/1e6)
	}
	within("control, client to upstream", out, delay)
	within("control, upstream to client", in, delay)
}

// sendNumbered sends n numbered datagrams slowly enough that no socket
// buffer overflows, waits for the path to drain and returns which numbers
// arrived upstream.
func sendNumbered(t *testing.T, u *upstream, l *Link, c *net.UDPConn, n int) map[uint32]bool {
	t.Helper()
	pkt := make([]byte, 200)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(pkt, uint32(i))
		if _, err := c.Write(pkt); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := l.Stats()
		if st.DataIn == int64(n) && st.DataIn == st.DataOut+st.DataLost+st.DataQueueDrops && len(u.seen) == int(st.DataOut) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("path did not drain: %+v with %d seen upstream", l.Stats(), len(u.seen))
		}
		time.Sleep(time.Millisecond)
	}
	got := make(map[uint32]bool)
	for len(u.seen) > 0 {
		got[binary.BigEndian.Uint32(<-u.seen)] = true
	}
	return got
}

// TestLossIsReproducibleForASeed: the same seed drops the same datagrams,
// another seed drops others, and the rate is the configured one.
func TestLossIsReproducibleForASeed(t *testing.T) {
	const n = 2000
	run := func(seed int64) map[uint32]bool {
		u := newUpstream(t, false)
		l, c := startLink(t, u, Config{Loss: 0.05, Seed: seed})
		return sendNumbered(t, u, l, c, n)
	}
	a, b, other := run(42), run(42), run(43)
	if len(a) != len(b) {
		t.Fatalf("seed 42 delivered %d then %d datagrams", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("seed 42 delivered datagram %d once and dropped it once", k)
		}
	}
	same := true
	for k := range a {
		if !other[k] {
			same = false
		}
	}
	if same && len(other) == len(a) {
		t.Error("seeds 42 and 43 dropped exactly the same datagrams")
	}
	if lost := n - len(a); lost < n*2/100 || lost > n*8/100 {
		t.Errorf("5%% loss dropped %d of %d", lost, n)
	}
}

// TestConservation: every datagram and control byte that enters the
// emulator leaves it or is counted as dropped, the bottleneck passes its
// configured rate, and what arrives is what was sent.
func TestConservation(t *testing.T) {
	u := newUpstream(t, false)
	// 8 Mb/s with a 5 ms queue: a 400-datagram burst overruns it.
	l, c := startLink(t, u, Config{Delay: time.Millisecond, RateBps: 8e6, Queue: 5 * time.Millisecond, Loss: 0.01, Seed: 7})
	const n = 400
	t0 := time.Now()
	got := sendNumbered(t, u, l, c, n)
	st := l.Stats()
	if st.DataIn != st.DataOut+st.DataLost+st.DataQueueDrops {
		t.Errorf("datagrams not conserved: %+v", st)
	}
	if int64(len(got)) != st.DataOut {
		t.Errorf("upstream saw %d distinct datagrams, emulator counted %d out", len(got), st.DataOut)
	}
	if st.DataQueueDrops == 0 {
		t.Error("a burst far above the bottleneck rate filled no queue")
	}
	if st.DataBytesOut != st.DataOut*200 {
		t.Errorf("%d datagrams out carried %d bytes, want 200 each", st.DataOut, st.DataBytesOut)
	}
	// Nothing leaves faster than the link serialises it.
	if floor := time.Duration(float64(st.DataOut*(200+ipUDPOverhead)*8) / 8e6 * float64(time.Second)); time.Since(t0) < floor-5*time.Millisecond {
		t.Errorf("%d datagrams crossed an 8 Mb/s link in %v, floor %v", st.DataOut, time.Since(t0), floor)
	}

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := u.tcp.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	ctl, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("control-frame "), 700) // several reads' worth
	go func() {
		ctl.Write(msg)
		ctl.(*net.TCPConn).CloseWrite()
	}()
	up := <-accepted
	defer up.Close()
	up.SetReadDeadline(time.Now().Add(2 * time.Second))
	relayed, err := io.ReadAll(up)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Close()
	if !bytes.Equal(relayed, msg) {
		t.Errorf("control stream relayed %d bytes, sent %d, or content differs", len(relayed), len(msg))
	}
	if st := l.Stats(); st.CtlIn != int64(len(msg)) || st.CtlOut != st.CtlIn {
		t.Errorf("control bytes not conserved: in %d out %d, sent %d", st.CtlIn, st.CtlOut, len(msg))
	}
}

// TestFinishedFlowsAreReleased: the emulator holds a socket and a relay per
// datagram flow and a connection pair per control stream only while they
// are in use, and a client that speaks again after its flow expired gets a
// new one.
func TestFinishedFlowsAreReleased(t *testing.T) {
	defer func(d time.Duration) { flowIdle = d }(flowIdle)
	flowIdle = 100 * time.Millisecond
	u := newUpstream(t, true)
	l, c := startLink(t, u, Config{Delay: time.Millisecond})
	held := func() (flows, conns int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.links), len(l.conns)
	}
	settle := func(what string, flows, conns int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			f, cn := held()
			if f == flows && cn == conns {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: emulator holds %d flows and %d control connections, want %d and %d", what, f, cn, flows, conns)
			}
			time.Sleep(time.Millisecond)
		}
	}

	go func() {
		for {
			conn, err := u.tcp.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn); conn.Close() }()
		}
	}()
	ctl, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // three flows: three client ports
		cl, err := net.Dial("udp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.Write([]byte("data"))
	}
	echoed := func(msg string) {
		t.Helper()
		c.Write([]byte(msg))
		echo := make([]byte, 16)
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := c.Read(echo); err != nil || string(echo[:n]) != msg {
			t.Fatalf("sent %q, got %q, %v back", msg, echo[:n], err)
		}
	}
	echoed("data")
	settle("in use", 4, 2)
	ctl.Close()
	settle("idle", 0, 0)
	echoed("again") // a client whose flow had expired
	settle("idle again", 0, 0)
}
