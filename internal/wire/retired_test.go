// Retired control frames. The trace id the TRACE prelude carried rides in the
// CHECK now, and the window HELLO-ACK carried rides in HAVE; these tests keep
// those frames' names and pin where their content went, and that their own
// bytes — as an earlier build wrote them — are refused.
package wire_test

import (
	"errors"
	"testing"

	"github.com/hpcnet/fobs/internal/wire"
)

func traceID(fill byte) (id [16]byte) {
	for i := range id {
		id[i] = fill + byte(i)
	}
	return id
}

// TestTraceRoundTrip: the trace id round-trips in the CHECK, and the zero id
// is an untraced announcement of the same length.
func TestTraceRoundTrip(t *testing.T) {
	for _, id := range [][16]byte{traceID(0x40), {}} {
		c := wire.Check{Transfer: 3, ObjectSize: 9, PacketSize: 4, Trace: id}
		buf := wire.AppendCheck(nil, &c)
		if len(buf) != wire.CheckLen {
			t.Fatalf("frame length %d, want %d", len(buf), wire.CheckLen)
		}
		got, err := wire.DecodeCheck(buf)
		if err != nil {
			t.Fatalf("DecodeCheck: %v", err)
		}
		if got.Trace != id {
			t.Fatalf("trace id %x came back %x", id, got.Trace)
		}
	}
}

// TestTraceRejectsFutureVersion: a TRACE prelude is refused at its type, at
// the version earlier builds spoke and at any later one.
func TestTraceRejectsFutureVersion(t *testing.T) {
	for _, v := range []uint8{1, 2, 255} {
		if _, err := wire.PeekType(legacyTrace(v, traceID(1))); !errors.Is(err, wire.ErrBadType) {
			t.Fatalf("version %d TRACE: PeekType err = %v, want ErrBadType", v, err)
		}
	}
}

// TestTraceRejectsBadFrames: no decoder of this build takes a TRACE
// prelude's bytes for its own frame — the HELLO included, which has the
// same length.
func TestTraceRejectsBadFrames(t *testing.T) {
	b := legacyTrace(1, traceID(9))
	if len(b) != wire.HelloLen {
		t.Fatalf("TRACE is %d bytes, HELLO %d", len(b), wire.HelloLen)
	}
	if _, err := wire.DecodeHello(b); !errors.Is(err, wire.ErrBadType) {
		t.Errorf("DecodeHello: %v", err)
	}
	if _, err := wire.DecodeComplete(b); !errors.Is(err, wire.ErrBadType) {
		t.Errorf("DecodeComplete: %v", err)
	}
	if _, err := wire.DecodeAbort(b); !errors.Is(err, wire.ErrBadType) {
		t.Errorf("DecodeAbort: %v", err)
	}
	if _, err := wire.DecodeHave(b); !errors.Is(err, wire.ErrBadType) {
		t.Errorf("DecodeHave: %v", err)
	}
	if _, err := wire.DecodeCheck(b); !errors.Is(err, wire.ErrBadType) {
		t.Errorf("DecodeCheck: %v", err)
	}
}

// TestTracePeekAndControlLen: the stream framer refuses the retired TRACE
// type at its header and sizes no frame for it, and nothing past the last
// known type is framed either.
func TestTracePeekAndControlLen(t *testing.T) {
	if _, err := wire.PeekType(legacyTrace(1, traceID(0))[:3]); !errors.Is(err, wire.ErrBadType) {
		t.Fatalf("PeekType(TRACE) err = %v, want ErrBadType", err)
	}
	if _, err := wire.ControlLen(10); !errors.Is(err, wire.ErrBadType) {
		t.Fatalf("ControlLen(TRACE) err = %v, want ErrBadType", err)
	}
	if _, err := wire.TrailerLen(legacyTrace(1, traceID(0))); !errors.Is(err, wire.ErrBadType) {
		t.Fatalf("TrailerLen(TRACE) err = %v, want ErrBadType", err)
	}
	if _, err := wire.PeekType([]byte{0xF0, 0xB5, wire.TypeCheck + 1}); !errors.Is(err, wire.ErrBadType) {
		t.Fatalf("PeekType(TypeCheck+1) err = %v, want ErrBadType", err)
	}
}

// TestHelloAckRoundTrip: the window a HELLO-ACK carried round-trips in the
// HAVE that replaced it, in the same fourth byte.
func TestHelloAckRoundTrip(t *testing.T) {
	for _, w := range []wire.Window{0, 21, 255} {
		h := wire.Have{Transfer: 77, Words: []uint64{0}, Window: w}
		buf := wire.AppendHave(nil, &h)
		got, err := wire.DecodeHave(buf)
		if err != nil || got.Window != w || got.Transfer != 77 {
			t.Fatalf("window %d: got %+v, %v", w, got, err)
		}
		if old := legacyHelloAck(77, uint8(w)); buf[3] != old[3] {
			t.Fatalf("window %d in byte 3 % x, a HELLO-ACK had it as % x", w, buf[:4], old[:4])
		}
	}
}

// TestDecodeHelloAckErrors: an earlier build's HELLO-ACK, with or without a
// window, is refused at its type by the framer and every decoder.
func TestDecodeHelloAckErrors(t *testing.T) {
	for _, w := range []uint8{0, 21} {
		b := legacyHelloAck(1, w)
		if _, err := wire.PeekType(b); !errors.Is(err, wire.ErrBadType) {
			t.Errorf("PeekType: %v", err)
		}
		if _, err := wire.ControlLen(b[2]); !errors.Is(err, wire.ErrBadType) {
			t.Errorf("ControlLen: %v", err)
		}
		if _, err := wire.DecodeHave(append(b, make([]byte, wire.HaveFixedLen)...)); !errors.Is(err, wire.ErrBadType) {
			t.Errorf("DecodeHave: %v", err)
		}
	}
}
