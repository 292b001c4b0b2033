// Control connections, both ends: one per peer, not one per object. The
// paper's FOBS keeps one TCP connection per peer for the completion signal
// while the object is the unit on the data path, and so does this runtime.
// A receiving endpoint, a Listener, runs one accept loop, from Listen to
// Close, and one server per accepted connection, which lends the connection
// to whichever of the Listener's three ways to take a transfer — Accept,
// Serve, AcceptSession — takes it, and serves the connection's announcements
// until its sender closes it. A sender keeps the connection a successful
// Send leaves open in a pool keyed by the address it was sent to, for the
// next Send there.
package udprt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"
)

// announceWait bounds how long a connection that has served a transfer
// waits for its next announcement before the endpoint closes it, silently:
// its sender has a pool entry, not a transfer, at stake. It is longer than
// poolIdle, so that a sender normally closes an idle connection first. A
// variable, so that tests can shorten it.
var announceWait = 30 * time.Second

// lease is a control connection lent by its server to the adapter that
// takes it: Accept and Serve for one announcement, a session for its
// whole life.
type lease struct {
	rd   *ctlReader
	back chan bool // the taker's verdict: serve the next announcement (true) or close (false)
}

// giveBack ends the lease. It may be called more than once; only the first
// verdict counts.
func (ls lease) giveBack(serveOn bool) {
	select {
	case ls.back <- serveOn:
	default:
	}
}

// acceptLoop is the endpoint's one taker of control connections, from Listen
// until Close closes the listening socket under it. Each connection gets its
// reader and its server at once.
func (l *Listener) acceptLoop() {
	defer l.conns.Done()
	for {
		c, err := l.tcp.AcceptTCP()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of descriptors, most likely: give the transfers in flight a
			// moment to end before trying again.
			select {
			case <-l.closing:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		l.conns.Add(1)
		go l.serveConn(readControl(c))
	}
}

// serveConn lends one control connection out, one announcement at a time,
// until its sender closes it or the endpoint closes. A fresh connection is
// lent at once: whatever it says first — an announcement, a frame of the
// wrong kind, nothing for 30 s — is the taker's to answer (readTransferPlan,
// refuseAnnouncement). A connection that has served a transfer is lent again
// only once the first frame of its next announcement has arrived, so that a
// taker never waits on a sender that is merely keeping it; if instead it
// closes, or says nothing for announceWait, it is closed without an answer,
// since an ABORT there would read as a refusal of the next Send. A taker
// that reports a failure ends the connection: a sender keeps only a
// connection whose exchange succeeded.
func (l *Listener) serveConn(rd *ctlReader) {
	defer l.conns.Done()
	defer rd.close()
	back := make(chan bool, 1)
	for fresh := true; ; fresh = false {
		if !fresh && !l.nextAnnouncement(rd) {
			return
		}
		select {
		case l.leases <- lease{rd, back}:
		case <-l.closing:
			return
		}
		select {
		case serveOn := <-back:
			if !serveOn {
				return
			}
		case <-l.closing:
			return
		}
	}
}

// nextAnnouncement waits for the first frame a served connection's sender
// writes next and holds it for readTransferPlan. It reports false when the
// sender closes the connection, the endpoint closes, or announceWait passes
// first.
func (l *Listener) nextAnnouncement(rd *ctlReader) bool {
	wait := time.NewTimer(announceWait)
	defer wait.Stop()
	select {
	case f, ok := <-rd.frames:
		rd.held, rd.holding = f, ok
		return ok
	case <-wait.C:
	case <-l.closing:
	}
	return false
}

// lease waits for a control connection to take, until ctx ends or the
// endpoint closes.
func (l *Listener) lease(ctx context.Context) (lease, error) {
	select {
	case ls := <-l.leases:
		return ls, nil
	case <-ctx.Done():
		return lease{}, fmt.Errorf("udprt: accept control: %w", ctx.Err())
	case <-l.closing:
		return lease{}, fmt.Errorf("udprt: accept control: %w", net.ErrClosed)
	}
}

// The sender's pool of kept control connections.
const (
	// poolPerAddr bounds the idle connections kept per address: more Sends
	// than that at once to one peer each hold a connection of their own, and
	// the surplus is closed as they finish.
	poolPerAddr = 4
	// poolIdle is how long a kept connection waits for the next Send to its
	// address before it is closed: well inside announceWait, the receiver's
	// wait for a kept connection's next announcement.
	poolIdle = 10 * time.Second
)

// idleControl is the process's pool of control connections that successful
// Sends left open, by the address they were sent to.
var idleControl = connPool{idle: make(map[string][]*keptConn)}

type connPool struct {
	mu   sync.Mutex
	idle map[string][]*keptConn // by address, the most recently kept last
}

// keptConn is one idle connection and the timer that closes it at poolIdle.
type keptConn struct {
	conn   net.Conn
	expiry *time.Timer
}

// take removes and returns the connection kept last for addr, or nil when
// none is kept.
func (p *connPool) take(addr string) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.idle[addr]
	if len(kept) == 0 {
		return nil
	}
	kc := kept[len(kept)-1]
	p.idle[addr] = slices.Delete(kept, len(kept)-1, len(kept))
	if len(kept) == 1 {
		delete(p.idle, addr)
	}
	kc.expiry.Stop() // an expiry already under way finds kc gone
	return kc.conn
}

// put keeps c for the next Send to addr, or closes it when poolPerAddr
// connections are kept for addr already.
func (p *connPool) put(addr string, c net.Conn) {
	p.mu.Lock()
	full := len(p.idle[addr]) >= poolPerAddr
	if !full {
		kc := &keptConn{conn: c}
		kc.expiry = time.AfterFunc(poolIdle, func() { p.expire(addr, kc) })
		p.idle[addr] = append(p.idle[addr], kc)
	}
	p.mu.Unlock()
	if full {
		c.Close()
	}
}

// expire closes kc if it is still kept.
func (p *connPool) expire(addr string, kc *keptConn) {
	p.mu.Lock()
	kept := p.idle[addr]
	i := slices.Index(kept, kc)
	if i >= 0 {
		p.idle[addr] = slices.Delete(kept, i, i+1)
		if len(kept) == 1 {
			delete(p.idle, addr)
		}
	}
	p.mu.Unlock()
	if i >= 0 {
		kc.conn.Close()
	}
}

// stale reports the failures of an announcement on a kept connection that
// say the receiver closed it while it idled, before any answer: EOF, a
// reset, a broken pipe. Only these are worth one more exchange on a new
// connection; an answer — HAVE or ABORT — never is.
func stale(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
