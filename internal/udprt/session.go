package udprt

import (
	"context"
	"errors"
	"fmt"
	"net"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// ErrSessionBroken reports a Session.Send on a session whose earlier Send
// failed. After a failure the control stream's framing state is ambiguous
// (a completion-reader goroutine may still own the next inbound frame),
// so the session refuses further transfers instead of risking corrupt
// framing. Close it and open a fresh one.
var ErrSessionBroken = errors.New("udprt: session broken by earlier failed send")

// Session sends a sequence of objects to one receiver over a single
// control connection and a fixed set of data sockets: the control
// connection carries one announcement/HAVE/COMPLETE exchange per object,
// and transfer tags auto-increment so stragglers from a previous object
// cannot corrupt the next. This is the shape of the paper's
// remote-visualization workload — many frames, one peer. With
// Options.Streams > 1 every object is striped across that many UDP flows.
// Send shares the control connection the same way (it keeps the connection
// of a successful exchange for the next Send to the same address); what a
// session adds is its data sockets and its tag numbering, kept across
// objects.
//
// A session is not usable after a Send returns an error: further Sends
// fail fast with ErrSessionBroken. Close it and open a fresh one.
type Session struct {
	ctl    *net.TCPConn
	conns  []*net.UDPConn
	opts   Options
	next   uint32
	broken bool
}

// OpenSession dials a session towards the endpoint at addr, which takes it
// with Listener.AcceptSession.
func OpenSession(ctx context.Context, addr string, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	if opts.Streams > wire.MaxStreams {
		return nil, fmt.Errorf("udprt: %d streams exceeds the wire limit of %d", opts.Streams, wire.MaxStreams)
	}
	var d net.Dialer
	ctlRaw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprt: dial session control: %w", err)
	}
	ctl := ctlRaw.(*net.TCPConn)
	conns, err := dialDataFlows(addr, opts.Streams, opts)
	if err != nil {
		ctl.Close()
		return nil, err
	}
	return &Session{ctl: ctl, conns: conns, opts: opts}, nil
}

// Close releases the session's sockets.
func (s *Session) Close() error {
	closeAll(s.conns)
	return s.ctl.Close()
}

// Send transfers one object within the session: the same per-object
// exchange as Send (senderPlan.send) over the session's control connection
// and data sockets. cfg.Transfer is overridden by the session's own
// numbering (striped objects consume one tag per stripe). There is no retry
// inside a session — on any error the control stream is suspect, the
// session is marked broken, and every later Send fails with
// ErrSessionBroken.
func (s *Session) Send(ctx context.Context, obj []byte, cfg core.Config) (core.SenderStats, error) {
	if s.broken {
		return core.SenderStats{}, ErrSessionBroken
	}
	cfg.Transfer = s.next + 1
	plan, err := newSenderPlan(obj, cfg, s.opts)
	if err != nil {
		return core.SenderStats{}, err
	}
	s.next += uint32(len(plan.snds))
	st, err := plan.send(ctx, s.ctl, "", s.conns, s.opts)
	s.broken = err != nil
	return st, err
}

// IncomingSession is the receive side of one sender's session: the
// endpoint lends it one control connection for its whole life.
type IncomingSession struct {
	l  *Listener
	ls lease // the session's control connection and its one reader, for every object
}

// AcceptSession waits for one sender to connect: a new control connection,
// or one that served an earlier transfer and carries a new announcement. The
// session then holds that connection, and yields its objects in order, until
// either end closes it.
func (l *Listener) AcceptSession(ctx context.Context) (*IncomingSession, error) {
	ls, err := l.lease(ctx)
	if err != nil {
		return nil, fmt.Errorf("udprt: accept session: %w", err)
	}
	return &IncomingSession{l: l, ls: ls}, nil
}

// Close ends the session from the receive side: its connection is closed.
func (is *IncomingSession) Close() error {
	err := is.ls.rd.ctl.Close()
	is.ls.giveBack(false)
	return err
}

// Next receives the session's next object — single-flow or striped,
// whatever the announcement declares. It returns io-style errors when the
// sender closes the session or ctx expires. The transfer is watched like
// any other: the sender's ABORT or a lost control connection ends it at
// once.
func (is *IncomingSession) Next(ctx context.Context) ([]byte, core.ReceiverStats, error) {
	_, obj, st, err := is.l.receive(ctx, is.ls.rd)
	return obj, st, err
}
