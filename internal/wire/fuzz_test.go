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
		wire.AppendHelloAck(nil, &wire.HelloAck{Transfer: cfg.Transfer}),
		wire.AppendComplete(nil, &wire.Complete{
			Transfer: cfg.Transfer, Received: uint64(len(obj)), Digest: wire.ContentTag(core.ContentID(rcv.Object())),
		}),
		wire.AppendAbort(nil, &wire.Abort{Transfer: cfg.Transfer, Reason: wire.AbortStalled}),
		wire.AppendHave(nil, &wire.Have{
			Transfer: cfg.Transfer, Received: uint32(len(datas)),
			Words: rcv.HaveWords(nil),
		}),
		wire.AppendTrace(nil, &wire.Trace{
			ID: [16]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		}),
		wire.AppendCheck(nil, &wire.Check{
			Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)),
			PacketSize: uint32(cfg.PacketSize), Flags: wire.CheckFlagDedup,
			Digest: core.ContentID(obj),
		}),
		// The two answers with a receive window in their fourth byte.
		wire.AppendHelloAck(nil, &wire.HelloAck{Transfer: cfg.Transfer, Window: 21}),
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

// legacyResume is a RESUME frame (type 8, retired) as an earlier build wrote
// it — magic, type, version, streams, transfer, object size, packet size,
// whole-object CRC-32C — at the given revision and stream count.
func legacyResume(version uint8, streams uint16) []byte {
	b := binary.BigEndian.AppendUint16(nil, wire.Magic)
	b = append(b, 8, version)
	b = binary.BigEndian.AppendUint16(b, streams)
	b = binary.BigEndian.AppendUint32(b, 3)
	b = binary.BigEndian.AppendUint64(b, 9000)
	b = binary.BigEndian.AppendUint32(b, 512)
	return binary.BigEndian.AppendUint32(b, 0x01020304)
}

func FuzzDecodeControl(f *testing.F) {
	_, _, control := captureFrames(f)
	for _, frame := range control {
		f.Add(frame)
	}
	f.Add(wire.AppendHelloX(nil, &wire.HelloX{
		Transfer: 2, ObjectSize: 4096, PacketSize: 1024,
		Stripes: []wire.StripeDesc{{Transfer: 2, Offset: 0, Length: 4096}},
	}))
	f.Add(wire.AppendHelloX(nil, &wire.HelloX{
		Transfer: 5, ObjectSize: 5000, PacketSize: 1024,
		Stripes: []wire.StripeDesc{
			{Transfer: 5, Offset: 0, Length: 2048},
			{Transfer: 6, Offset: 2048, Length: 2048},
			{Transfer: 7, Offset: 4096, Length: 904},
		},
	}))
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
	// Future-version TRACE: same refusal rule.
	futureTrace := wire.AppendTrace(nil, &wire.Trace{ID: [16]byte{0xAA}})
	futureTrace[3] = wire.TraceVersion + 1
	f.Add(futureTrace)
	// CHECK with stripe digests, and a future-version CHECK: the decoder
	// must refuse the latter before any layout parsing.
	striped := wire.AppendCheck(nil, &wire.Check{
		Transfer: 6, ObjectSize: 4096, PacketSize: 1024,
		Flags:  wire.CheckFlagDedup | wire.CheckFlagVerify,
		Digest: [32]byte{1, 2, 3}, StripeDigests: [][32]byte{{4}, {5}},
	})
	f.Add(striped)
	// Truncated trailer: the prefix promises two stripe digests but only
	// part of one follows. Must come back ErrShort.
	f.Add(striped[:len(striped)-40])
	futureCheck := wire.AppendCheck(nil, &wire.Check{
		Transfer: 7, ObjectSize: 64, PacketSize: 64, Digest: [32]byte{9},
	})
	futureCheck[3] = wire.CheckVersion + 1
	f.Add(futureCheck)
	// The previous revision (plain SHA-256 digests) is refused the same way.
	f.Add(wire.AppendCheck(nil, &wire.Check{
		Version: 1, Transfer: 7, ObjectSize: 64, PacketSize: 64, Digest: [32]byte{9},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := wire.DecodeHello(b); err == nil {
			if _, err := wire.DecodeHello(wire.AppendHello(nil, &h)); err != nil {
				t.Fatalf("hello re-decode failed: %v", err)
			}
		}
		if c, err := wire.DecodeComplete(b); err == nil {
			if _, err := wire.DecodeComplete(wire.AppendComplete(nil, &c)); err != nil {
				t.Fatalf("complete re-decode failed: %v", err)
			}
		}
		if h, err := wire.DecodeHelloAck(b); err == nil {
			if re, err := wire.DecodeHelloAck(wire.AppendHelloAck(nil, &h)); err != nil || re != h {
				t.Fatalf("hello-ack re-decode failed: %v (%+v vs %+v)", err, re, h)
			}
			if n := h.Window.Bytes(); n < 0 || (h.Window != 0 && n < 2) {
				t.Fatalf("window %d is %d bytes", h.Window, n)
			}
		}
		if h, err := wire.DecodeHelloX(b); err == nil {
			re, err := wire.DecodeHelloX(wire.AppendHelloX(nil, &h))
			if err != nil {
				t.Fatalf("hellox re-decode failed: %v", err)
			}
			if re.Transfer != h.Transfer || len(re.Stripes) != len(h.Stripes) {
				t.Fatalf("re-encode changed the hellox: %+v vs %+v", re, h)
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
		}
		if tr, err := wire.DecodeTrace(b); err == nil {
			if re, err := wire.DecodeTrace(wire.AppendTrace(nil, &tr)); err != nil || re != tr {
				t.Fatalf("trace re-decode failed: %v (%+v vs %+v)", err, re, tr)
			}
		}
		if c, err := wire.DecodeCheck(b); err == nil {
			re, err := wire.DecodeCheck(wire.AppendCheck(nil, &c))
			if err != nil {
				t.Fatalf("check re-decode failed: %v", err)
			}
			if re.Transfer != c.Transfer || re.Digest != c.Digest ||
				re.Flags != c.Flags || len(re.StripeDigests) != len(c.StripeDigests) {
				t.Fatalf("re-encode changed the check: %+v vs %+v", re, c)
			}
		}
		// Any frame the stream framer would read must have a stable length,
		// and the retired RESUME type is never read.
		if typ, err := wire.PeekType(b); err == nil && typ != wire.TypeData && typ != wire.TypeAck {
			if _, err := wire.ControlLen(typ); err != nil {
				t.Fatalf("PeekType accepted control type %d but ControlLen rejects it", typ)
			}
			if typ == 8 {
				t.Fatal("PeekType accepted a RESUME frame")
			}
		}
	})
}
