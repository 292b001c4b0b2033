// Decoder fuzz targets. They live in the external test package so the seed
// corpus can be captured from a genuine core sender/receiver exchange —
// core imports wire, so an in-package test could not import it back. On top
// of these in-code seeds, testdata/fuzz/ holds a committed corpus of
// captured frames (regenerate with `go run gen_corpus.go`).
//
// `go test` runs the seed corpus; `go test -fuzz` digs deeper. The
// invariant everywhere: decoders must never panic, and whatever they accept
// must re-encode to something they accept again.
package wire_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// captureFrames runs a miniature in-memory transfer and returns the raw
// frames it put on the wire: every data packet until the object completed,
// every acknowledgement the receiver built, and the control frames of the
// handshake and teardown. These are real protocol bytes, not hand-rolled
// approximations, so the fuzz corpus starts from the live format.
func captureFrames(tb testing.TB) (datas, acks, control [][]byte) {
	tb.Helper()
	obj := make([]byte, 8<<10+5)
	for i := range obj {
		obj[i] = byte(i * 131)
	}
	cfg := core.Config{PacketSize: 1024, AckFrequency: 4, Checksum: true}
	snd := core.NewSender(obj, cfg)
	cfg = snd.Config()
	rcv := core.NewReceiver(int64(len(obj)), cfg)
	for i := 0; i < 10000 && !rcv.Complete(); i++ {
		pkt, ok := snd.NextPacket()
		if !ok {
			break
		}
		frame := wire.AppendData(nil, &pkt)
		datas = append(datas, frame)
		d, err := wire.DecodeData(frame)
		if err != nil {
			tb.Fatalf("captured data frame does not decode: %v", err)
		}
		ackDue, err := rcv.HandleData(d)
		if err != nil {
			tb.Fatalf("receiver rejected captured frame: %v", err)
		}
		if ackDue {
			a := rcv.BuildAck()
			ackFrame := wire.AppendAck(nil, &a)
			acks = append(acks, ackFrame)
			back, err := wire.DecodeAck(ackFrame)
			if err != nil {
				tb.Fatalf("captured ack frame does not decode: %v", err)
			}
			if err := snd.HandleAck(back); err != nil {
				tb.Fatalf("sender rejected captured ack: %v", err)
			}
		}
	}
	if !rcv.Complete() || len(acks) == 0 {
		tb.Fatalf("capture exchange never completed (%d datas, %d acks)", len(datas), len(acks))
	}
	control = [][]byte{
		wire.AppendHello(nil, &wire.Hello{
			Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)), PacketSize: uint32(cfg.PacketSize),
		}),
		wire.AppendComplete(nil, &wire.Complete{
			Transfer: cfg.Transfer, Received: uint64(len(obj)), Digest: wire.ContentTag(core.ContentID(rcv.Object())),
		}),
		wire.AppendAbort(nil, &wire.Abort{Transfer: cfg.Transfer, Reason: wire.AbortStalled}),
		wire.AppendHave(nil, &wire.Have{
			Transfer: cfg.Transfer, Received: uint32(len(datas)),
			Words: rcv.HaveWords(nil),
		}),
		wire.AppendCheck(nil, &wire.Check{
			Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)),
			PacketSize: uint32(cfg.PacketSize), Flags: wire.CheckFlagDedup,
			Digest: core.ContentID(obj),
			Trace:  [16]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		}),
		// The answer that accepts a transfer, with a receive window.
		wire.AppendHave(nil, &wire.Have{
			Transfer: cfg.Transfer, Received: uint32(len(datas)),
			Words: rcv.HaveWords(nil), Window: 17,
		}),
	}
	return datas, acks, control
}

func FuzzDecodeData(f *testing.F) {
	datas, _, _ := captureFrames(f)
	for _, frame := range datas {
		f.Add(frame)
	}
	f.Add(wire.AppendData(nil, &wire.Data{Transfer: 1, Seq: 3, Total: 10, Payload: []byte("seed")}))
	f.Add(wire.AppendData(nil, &wire.Data{Transfer: 9, Seq: 0, Total: 1, Payload: nil, Checksum: true}))
	f.Add([]byte{})
	f.Add([]byte{0xF0, 0xB5, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := wire.DecodeData(b)
		if err != nil {
			return
		}
		// Accepted packets survive a re-encode/decode cycle unchanged.
		re, err := wire.DecodeData(wire.AppendData(nil, &d))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Seq != d.Seq || re.Total != d.Total || re.Transfer != d.Transfer ||
			!bytes.Equal(re.Payload, d.Payload) {
			t.Fatalf("re-encode changed the packet: %+v vs %+v", re, d)
		}
	})
}

func FuzzDecodeAck(f *testing.F) {
	_, acks, _ := captureFrames(f)
	for _, frame := range acks {
		f.Add(frame)
	}
	f.Add(wire.AppendAck(nil, &wire.Ack{Transfer: 1, AckSeq: 2, Received: 3, Delta: 4,
		Frag: bitmap.Fragment{Start: 64, Words: []uint64{7}}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := wire.DecodeAck(b)
		if err != nil {
			return
		}
		re, err := wire.DecodeAck(wire.AppendAck(nil, &a))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.AckSeq != a.AckSeq || re.Frag.Start != a.Frag.Start ||
			len(re.Frag.Words) != len(a.Frag.Words) {
			t.Fatalf("re-encode changed the ack")
		}
	})
}

// The retired control frames as earlier builds wrote them: a frozen corpus
// the decoders must keep refusing, seeded into FuzzDecodeControl and used by
// the tests that pin the refusals.

// legacyResume is a RESUME frame (type 8) — magic, type, version, streams,
// transfer, object size, packet size, whole-object CRC-32C — at the given
// revision and stream count.
func legacyResume(version uint8, streams uint16) []byte {
	b := binary.BigEndian.AppendUint16(nil, wire.Magic)
	b = append(b, 8, version)
	b = binary.BigEndian.AppendUint16(b, streams)
	b = binary.BigEndian.AppendUint32(b, 3)
	b = binary.BigEndian.AppendUint64(b, 9000)
	b = binary.BigEndian.AppendUint32(b, 512)
	return binary.BigEndian.AppendUint32(b, 0x01020304)
}

// legacyHelloX is a HELLOX frame (type 7), the striped announcement: magic,
// type, version, a two-byte stripe count, transfer, object size, packet size,
// then each stripe's tag, offset and length.
func legacyHelloX(version uint8, transfer uint32, size uint64, packetSize uint32, stripes []wire.StripeDesc) []byte {
	b := binary.BigEndian.AppendUint16(nil, wire.Magic)
	b = append(b, 7, version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(stripes)))
	b = binary.BigEndian.AppendUint32(b, transfer)
	b = binary.BigEndian.AppendUint64(b, size)
	b = binary.BigEndian.AppendUint32(b, packetSize)
	for _, s := range stripes {
		b = binary.BigEndian.AppendUint32(b, s.Transfer)
		b = binary.BigEndian.AppendUint64(b, s.Offset)
		b = binary.BigEndian.AppendUint64(b, s.Length)
	}
	return b
}

// legacyTrace is a TRACE prelude (type 10): magic, type, version, the
// 16-byte trace id.
func legacyTrace(version uint8, id [16]byte) []byte {
	return append(binary.BigEndian.AppendUint16(nil, wire.Magic), append([]byte{10, version}, id[:]...)...)
}

// legacyHelloAck is a HELLO-ACK (type 5), the acceptance: magic, type, the
// window byte, transfer.
func legacyHelloAck(transfer uint32, window uint8) []byte {
	return binary.BigEndian.AppendUint32(append(binary.BigEndian.AppendUint16(nil, wire.Magic), 5, window), transfer)
}

func FuzzDecodeControl(f *testing.F) {
	_, _, control := captureFrames(f)
	for _, frame := range control {
		f.Add(frame)
	}
	stripes := []wire.StripeDesc{
		{Transfer: 5, Offset: 0, Length: 2048},
		{Transfer: 6, Offset: 2048, Length: 2048},
		{Transfer: 7, Offset: 4096, Length: 904},
	}
	tabled := wire.AppendHello(nil, &wire.Hello{Transfer: 5, ObjectSize: 5000, PacketSize: 1024, Stripes: stripes})
	f.Add(tabled)
	f.Add(wire.AppendHello(nil, &wire.Hello{Transfer: 2, ObjectSize: 4096, PacketSize: 1024,
		Stripes: []wire.StripeDesc{{Transfer: 2, Offset: 0, Length: 4096}}}))
	// Truncated table: the prefix promises three stripes, but only part of
	// the last follows. Must come back ErrShort.
	f.Add(tabled[:len(tabled)-5])
	// The retired frames, however well-formed their bodies: HELLOX,
	// TRACE at the version earlier builds spoke and a later one, and
	// HELLO-ACK with and without a window.
	f.Add(legacyHelloX(1, 5, 5000, 1024, stripes))
	f.Add(legacyTrace(1, [16]byte{0xAA}))
	f.Add(legacyTrace(2, [16]byte{0xAA}))
	f.Add(legacyHelloAck(3, 0))
	f.Add(legacyHelloAck(3, 21))
	// RESUME frames of an earlier build — single-flow, striped, and of a
	// future revision: the retired type must be refused however well-formed
	// its body.
	f.Add(legacyResume(1, 1))
	f.Add(legacyResume(1, 4))
	f.Add(legacyResume(2, 1))
	have := wire.AppendHave(nil, &wire.Have{Transfer: 3, Received: 64, Words: []uint64{^uint64(0), 1}})
	f.Add(have)
	// Truncated bitmap: the fixed prefix promises two words but only one
	// follows. Must come back ErrShort, never a partial decode.
	f.Add(have[:len(have)-8])
	// A future-version CHECK and the two earlier revisions: the decoder
	// must refuse them by the version byte before any layout parsing.
	for _, v := range []uint8{wire.CheckVersion + 1, 1, 2} {
		c := wire.AppendCheck(nil, &wire.Check{
			Transfer: 7, ObjectSize: 64, PacketSize: 64, Digest: [32]byte{9},
		})
		c[3] = v
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := wire.DecodeHello(b); err == nil {
			re, err := wire.DecodeHello(wire.AppendHello(nil, &h))
			if err != nil {
				t.Fatalf("hello re-decode failed: %v", err)
			}
			if re.Transfer != h.Transfer || re.ObjectSize != h.ObjectSize || len(re.Stripes) != len(h.Stripes) {
				t.Fatalf("re-encode changed the hello: %+v vs %+v", re, h)
			}
		}
		if c, err := wire.DecodeComplete(b); err == nil {
			if _, err := wire.DecodeComplete(wire.AppendComplete(nil, &c)); err != nil {
				t.Fatalf("complete re-decode failed: %v", err)
			}
		}
		if a, err := wire.DecodeAbort(b); err == nil {
			if re, err := wire.DecodeAbort(wire.AppendAbort(nil, &a)); err != nil || re != a {
				t.Fatalf("abort re-decode failed: %v (%+v vs %+v)", err, re, a)
			}
		}
		if h, err := wire.DecodeHave(b); err == nil {
			re, err := wire.DecodeHave(wire.AppendHave(nil, &h))
			if err != nil {
				t.Fatalf("have re-decode failed: %v", err)
			}
			if re.Transfer != h.Transfer || re.Received != h.Received || re.Window != h.Window || len(re.Words) != len(h.Words) {
				t.Fatalf("re-encode changed the have: %+v vs %+v", re, h)
			}
			if n := h.Window.Bytes(); n < 0 || (h.Window != 0 && n < 2) {
				t.Fatalf("window %d is %d bytes", h.Window, n)
			}
		}
		if c, err := wire.DecodeCheck(b); err == nil {
			if re, err := wire.DecodeCheck(wire.AppendCheck(nil, &c)); err != nil || re != c {
				t.Fatalf("check re-decode failed: %v (%+v vs %+v)", err, re, c)
			}
		}
		// Any frame the stream framer would read must have a stable length,
		// and no retired type is ever read.
		if typ, err := wire.PeekType(b); err == nil && typ != wire.TypeData && typ != wire.TypeAck {
			if fixed, err := wire.ControlLen(typ); err != nil {
				t.Fatalf("PeekType accepted control type %d but ControlLen rejects it", typ)
			} else if len(b) >= fixed {
				wire.TrailerLen(b[:fixed])
			}
			switch typ {
			case 5, 7, 8, 10:
				t.Fatalf("PeekType accepted retired type %d", typ)
			}
		}
	})
}
