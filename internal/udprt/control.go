package udprt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/hpcnet/fobs/internal/wire"
)

// Failure-model errors (see DESIGN.md, "Failure model"). Both watchdogs are
// driver-level: the paper's protocol assumes live endpoints and specifies no
// exit for a dead peer, so liveness deadlines live here, not in the cores.
var (
	// ErrStalled reports the sender's liveness watchdog: the transfer was
	// incomplete and no acknowledgement arrived for Options.StallTimeout.
	ErrStalled = errors.New("udprt: transfer stalled: no acknowledgement progress")
	// ErrIdle reports the receiver's liveness watchdog: the object was
	// incomplete and no data arrived for Options.IdleTimeout.
	ErrIdle = errors.New("udprt: transfer idle: no data arriving")
)

// AbortError reports that the peer terminated the transfer with an ABORT
// control frame; Reason carries the peer's stated cause.
type AbortError struct {
	Transfer uint32
	Reason   wire.AbortReason
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("udprt: transfer %d aborted by peer: %s", e.Transfer, e.Reason)
}

// controlFrame is one decoded control-channel message.
type controlFrame struct {
	typ      uint8
	hello    wire.Hello
	complete wire.Complete
	abort    wire.Abort
	have     wire.Have
	check    wire.Check
}

// readControlFrame consumes exactly one control message from the stream:
// the fixed 4-byte header first, then the rest of the fixed prefix sized by
// the type, then the trailer — a HELLO's stripe table, a HAVE's bitmap —
// sized by the count inside that prefix. A frame of a retired or unknown
// type is refused at its header. Deadlines are the caller's business.
func readControlFrame(ctl io.Reader) (controlFrame, error) {
	var f controlFrame
	var hdr [4]byte
	if _, err := io.ReadFull(ctl, hdr[:]); err != nil {
		return f, err
	}
	typ, err := wire.PeekType(hdr[:])
	if err != nil {
		return f, fmt.Errorf("udprt: bad control frame: %w", err)
	}
	fixed, err := wire.ControlLen(typ)
	if err != nil {
		return f, fmt.Errorf("udprt: control channel: %w", err)
	}
	buf := make([]byte, fixed)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(ctl, buf[len(hdr):]); err != nil {
		return f, err
	}
	trailer, err := wire.TrailerLen(buf)
	if err != nil {
		return f, fmt.Errorf("udprt: bad control frame: %w", err)
	}
	if trailer > 0 {
		buf = append(buf, make([]byte, trailer)...)
		if _, err := io.ReadFull(ctl, buf[fixed:]); err != nil {
			return f, err
		}
	}
	f.typ = typ
	switch typ {
	case wire.TypeHello:
		f.hello, err = wire.DecodeHello(buf)
	case wire.TypeComplete:
		f.complete, err = wire.DecodeComplete(buf)
	case wire.TypeAbort:
		f.abort, err = wire.DecodeAbort(buf)
	case wire.TypeHave:
		f.have, err = wire.DecodeHave(buf)
	case wire.TypeCheck:
		f.check, err = wire.DecodeCheck(buf)
	}
	return f, err
}

// writeAbort best-effort sends an ABORT frame with a short deadline. Errors
// are ignored: abort is already the failure path, and a dead control
// connection reports the same fact to the peer.
func writeAbort(ctl net.Conn, transfer uint32, reason wire.AbortReason) {
	if ctl == nil {
		return
	}
	msg := wire.AppendAbort(nil, &wire.Abort{Transfer: transfer, Reason: reason})
	ctl.SetWriteDeadline(time.Now().Add(2 * time.Second))
	ctl.Write(msg)
	ctl.SetWriteDeadline(time.Time{})
}

// writeControl writes the frames msg holds on the control channel, bounded
// by a 10-second deadline.
func writeControl(ctl net.Conn, msg []byte) error {
	ctl.SetWriteDeadline(time.Now().Add(10 * time.Second))
	defer ctl.SetWriteDeadline(time.Time{})
	_, err := ctl.Write(msg)
	return err
}

// exchange is the sender's one announcement exchange, on an established
// control connection: write the announcement — CHECK then HELLO, in one
// write — and read the one answer, the HAVE, within timeout (clipped to ctx's
// deadline). The HAVE is the CHECK's verdict and the acceptance: Received
// zero on a miss, the retained packets' bitmap when the receiver holds part
// of the object, and the whole packet count when it holds all of it — after
// which COMPLETE follows and no data phase happens. The sender places no data
// on the network until this returns nil, so a dead or rejecting receiver can
// never cause an open-loop UDP blast. An ABORT surfaces as an *AbortError.
// What a failure means — retry, break the session — is the caller's policy.
func exchange(ctx context.Context, ctl net.Conn, frame []byte, transfer uint32, timeout time.Duration) (wire.Have, error) {
	ctl.SetWriteDeadline(time.Now().Add(timeout))
	_, err := ctl.Write(frame)
	ctl.SetWriteDeadline(time.Time{})
	if err != nil {
		return wire.Have{}, fmt.Errorf("udprt: hello write: %w", err)
	}
	dl := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	ctl.SetReadDeadline(dl)
	defer ctl.SetReadDeadline(time.Time{})
	f, err := readControlFrame(ctl)
	if err != nil {
		return wire.Have{}, fmt.Errorf("udprt: handshake: %w", err)
	}
	switch f.typ {
	case wire.TypeAbort:
		return wire.Have{}, &AbortError{Transfer: f.abort.Transfer, Reason: f.abort.Reason}
	case wire.TypeHave:
	default:
		return wire.Have{}, fmt.Errorf("udprt: handshake: unexpected control frame type %d", f.typ)
	}
	if f.have.Transfer != transfer {
		return wire.Have{}, fmt.Errorf("udprt: handshake: answer for transfer %d, want %d", f.have.Transfer, transfer)
	}
	return f.have, nil
}

// ctlReader is a receiving endpoint's control connection and its one
// reader, started when the connection is accepted. Its goroutine decodes the
// sender's frames in order and hands each over — announcements to receive,
// an ABORT to the wait — holding at most one frame ahead, so a sender that
// floods the channel meets TCP's backpressure. A read error closes frames
// and is kept raw in err: only an owner that takes it formats it, so a
// connection closed under a finished transfer costs no error value.
type ctlReader struct {
	ctl    net.Conn
	frames chan controlFrame
	err    error // the read error that closed frames; read only after frames is closed
	// held is the first frame of the next announcement on a connection that
	// has served a transfer, taken off frames by the connection's server
	// while it waited (see nextAnnouncement) and handed to readTransferPlan
	// with the connection.
	held    controlFrame
	holding bool
}

// readControl starts ctl's reader.
func readControl(ctl net.Conn) *ctlReader {
	r := &ctlReader{ctl: ctl, frames: make(chan controlFrame)}
	go r.run()
	return r
}

func (r *ctlReader) run() {
	for {
		f, err := readControlFrame(r.ctl)
		if err != nil {
			r.err = err
			close(r.frames)
			return
		}
		r.frames <- f
	}
}

// close closes the connection and returns once its reader has ended,
// dropping a frame it held that nobody will take. It may be called more
// than once.
func (r *ctlReader) close() error {
	err := r.ctl.Close()
	for range r.frames {
	}
	return err
}
