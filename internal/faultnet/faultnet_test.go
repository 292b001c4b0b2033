package faultnet

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// collector gathers sent packets thread-safely (delayed/held sends arrive
// from timer goroutines).
type collector struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (c *collector) send(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pkts = append(c.pkts, append([]byte(nil), p...))
}

func (c *collector) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.pkts...)
}

func feed(f *Faults, c *collector, n int) {
	for i := 0; i < n; i++ {
		f.Apply([]byte(fmt.Sprintf("pkt-%04d", i)), c.send)
	}
	f.Flush()
}

func TestZeroPolicyForwardsEverything(t *testing.T) {
	f := New(Policy{Seed: 1})
	var c collector
	feed(f, &c, 100)
	st := f.Stats()
	if st.Forwarded != 100 || st.Dropped != 0 || st.Duplicated != 0 {
		t.Fatalf("stats = %+v", st)
	}
	got := c.snapshot()
	if len(got) != 100 || string(got[0]) != "pkt-0000" || string(got[99]) != "pkt-0099" {
		t.Fatalf("packets disturbed: %d delivered", len(got))
	}
}

func TestDropIsDeterministic(t *testing.T) {
	run := func() ([][]byte, Stats) {
		f := New(Policy{Seed: 7, Drop: 0.3})
		var c collector
		feed(f, &c, 200)
		return c.snapshot(), f.Stats()
	}
	got1, st1 := run()
	got2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", st1, st2)
	}
	if st1.Dropped == 0 || st1.Dropped == 200 {
		t.Fatalf("droppped %d of 200 at p=0.3", st1.Dropped)
	}
	if len(got1) != len(got2) {
		t.Fatalf("delivery count differs: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if !bytes.Equal(got1[i], got2[i]) {
			t.Fatalf("packet %d differs across runs", i)
		}
	}
}

func TestDecisionStreamIndependentOfOtherKnobs(t *testing.T) {
	// judge always draws four values per packet, so turning duplication on
	// must not reshuffle which packets get dropped.
	dropped := func(p Policy) []string {
		f := New(p)
		var c collector
		feed(f, &c, 300)
		seen := map[string]bool{}
		for _, pkt := range c.snapshot() {
			seen[string(pkt)] = true
		}
		var out []string
		for i := 0; i < 300; i++ {
			name := fmt.Sprintf("pkt-%04d", i)
			if !seen[name] {
				out = append(out, name)
			}
		}
		return out
	}
	a := dropped(Policy{Seed: 3, Drop: 0.2})
	b := dropped(Policy{Seed: 3, Drop: 0.2, Dup: 0.5})
	if len(a) != len(b) {
		t.Fatalf("dup knob changed the drop set size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dup knob changed the drop set: %s vs %s", a[i], b[i])
		}
	}
}

func TestDupDeliversTwice(t *testing.T) {
	f := New(Policy{Seed: 5, Dup: 1})
	var c collector
	feed(f, &c, 10)
	if got := len(c.snapshot()); got != 20 {
		t.Fatalf("delivered %d packets, want 20", got)
	}
	if st := f.Stats(); st.Duplicated != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReorderSwapsAdjacentPackets(t *testing.T) {
	f := New(Policy{Seed: 5, Reorder: 1})
	var c collector
	for i := 0; i < 4; i++ {
		f.Apply([]byte(fmt.Sprintf("pkt-%04d", i)), c.send)
	}
	got := c.snapshot()
	// Every odd packet wants to reorder but the hold slot is taken, so the
	// stream becomes pairwise swaps: 1 0 3 2.
	want := []string{"pkt-0001", "pkt-0000", "pkt-0003", "pkt-0002"}
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("position %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestHeldPacketReleasedBySafetyTimer(t *testing.T) {
	// The last packet of a stream can be chosen for reordering with no
	// successor to release it; the safety timer must deliver it anyway.
	f := New(Policy{Seed: 5, Reorder: 1})
	var c collector
	f.Apply([]byte("lonely"), c.send)
	if n := len(c.snapshot()); n != 0 {
		t.Fatalf("held packet delivered immediately (%d)", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(c.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held packet never released")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.snapshot(); string(got[0]) != "lonely" {
		t.Fatalf("released %q", got[0])
	}
}

func TestDelayDelivers(t *testing.T) {
	f := New(Policy{Seed: 5, Delay: 1, DelayBy: 5 * time.Millisecond})
	var c collector
	f.Apply([]byte("late"), c.send)
	deadline := time.Now().Add(2 * time.Second)
	for len(c.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed packet never delivered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := f.Stats(); st.Delayed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWrapPacketConnDropsBySeed(t *testing.T) {
	dst, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	srcRaw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srcRaw.Close()

	f := New(Policy{Seed: 9, Drop: 1})
	src := WrapPacketConn(srcRaw, f)
	for i := 0; i < 5; i++ {
		if _, err := src.WriteTo([]byte("x"), dst.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.Dropped != 5 || st.Forwarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
	dst.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 16)
	if _, _, err := dst.ReadFromUDP(buf); err == nil {
		t.Fatal("dropped datagram was delivered")
	}
}

func TestProxyRelaysUDPAndTCP(t *testing.T) {
	// Upstream endpoint: a TCP listener and UDP echo on the same port,
	// mirroring the runtime's channel layout.
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	port := tl.Addr().(*net.TCPAddr).Port
	ul, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		t.Fatal(err)
	}
	defer ul.Close()
	go func() { // UDP echo
		buf := make([]byte, 1024)
		for {
			n, from, err := ul.ReadFromUDP(buf)
			if err != nil {
				return
			}
			ul.WriteToUDP(buf[:n], from)
		}
	}()
	go func() { // TCP echo, one connection
		c, err := tl.AcceptTCP()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 16)
		n, _ := c.Read(buf)
		c.Write(buf[:n])
	}()

	p, err := NewProxy(tl.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// UDP through the proxy comes back echoed.
	uc, err := net.Dial("udp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	if _, err := uc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	uc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, err := uc.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("udp echo through proxy: %q, %v", buf[:n], err)
	}
	if st := p.Stats(); st.Forwarded == 0 {
		t.Fatalf("proxy stats = %+v", st)
	}

	// TCP through the proxy comes back echoed too.
	tc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, err := tc.Write([]byte("ctl")); err != nil {
		t.Fatal(err)
	}
	tc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err = tc.Read(buf)
	if err != nil || string(buf[:n]) != "ctl" {
		t.Fatalf("tcp echo through proxy: %q, %v", buf[:n], err)
	}
	if got := p.Accepted(); got != 1 {
		t.Fatalf("proxy counted %d control connections, want 1", got)
	}
}

func TestProxySeverControlKillsConnections(t *testing.T) {
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	go func() {
		for {
			c, err := tl.AcceptTCP()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	p, err := NewProxy(tl.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	tc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	// Give the proxy a moment to register the relay before severing.
	time.Sleep(50 * time.Millisecond)
	p.SeverControl()
	tc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := tc.Read(buf); err == nil {
		t.Fatal("severed connection still readable")
	}
}

func TestCorruptFlipsOneBitPastOffset(t *testing.T) {
	const off = 4
	f := New(Policy{Seed: 9, Corrupt: 1, CorruptOffset: off})
	var c collector
	orig := []byte("hdrXpayload-bytes")
	f.Apply(append([]byte(nil), orig...), c.send)
	got := c.snapshot()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if st := f.Stats(); st.Corrupted != 1 {
		t.Fatalf("stats = %+v, want Corrupted 1", st)
	}
	if bytes.Equal(got[0], orig) {
		t.Fatal("packet passed untouched at Corrupt=1")
	}
	if !bytes.Equal(got[0][:off], orig[:off]) {
		t.Fatalf("corruption touched the protected header: %q vs %q", got[0][:off], orig[:off])
	}
	diff := 0
	for i := off; i < len(orig); i++ {
		for bit := 0; bit < 8; bit++ {
			if (got[0][i]^orig[i])>>uint(bit)&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", diff)
	}
}

func TestCorruptNeverMutatesCallerBuffer(t *testing.T) {
	f := New(Policy{Seed: 9, Corrupt: 1})
	var c collector
	orig := []byte("caller-owned-buffer")
	pkt := append([]byte(nil), orig...)
	f.Apply(pkt, c.send)
	if !bytes.Equal(pkt, orig) {
		t.Fatal("Apply mutated the caller's buffer")
	}
}

func TestCorruptTooShortPassesUntouched(t *testing.T) {
	f := New(Policy{Seed: 9, Corrupt: 1, CorruptOffset: 64})
	var c collector
	f.Apply([]byte("short"), c.send)
	got := c.snapshot()
	if len(got) != 1 || string(got[0]) != "short" {
		t.Fatalf("short packet disturbed: %q", got)
	}
	if st := f.Stats(); st.Corrupted != 0 {
		t.Fatalf("stats = %+v, want Corrupted 0", st)
	}
}

func TestCorruptKnobLeavesFateStreamAlone(t *testing.T) {
	// Corruption draws from its own stream, so turning it on must not
	// reshuffle which packets the fate stream drops.
	droppedCount := func(p Policy) int64 {
		f := New(p)
		var c collector
		feed(f, &c, 300)
		return f.Stats().Dropped
	}
	a := droppedCount(Policy{Seed: 3, Drop: 0.2})
	b := droppedCount(Policy{Seed: 3, Drop: 0.2, Corrupt: 0.7, CorruptOffset: 2})
	if a != b {
		t.Fatalf("corrupt knob changed the drop count: %d vs %d", a, b)
	}
}
