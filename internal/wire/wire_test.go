package wire

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/hpcnet/fobs/internal/bitmap"
)

func TestDataRoundTrip(t *testing.T) {
	d := Data{Transfer: 7, Seq: 42, Total: 100, Payload: []byte("hello world")}
	buf := AppendData(nil, &d)
	if len(buf) != DataHeaderLen+len(d.Payload) {
		t.Fatalf("encoded length %d, want %d", len(buf), DataHeaderLen+len(d.Payload))
	}
	got, err := DecodeData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Transfer != d.Transfer || got.Seq != d.Seq || got.Total != d.Total || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, d)
	}
}

func TestDataRoundTripProperty(t *testing.T) {
	f := func(xfer uint32, seq, total uint32, payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		total = total%1000 + 1
		seq = seq % total
		d := Data{Transfer: xfer, Seq: seq, Total: total, Payload: payload}
		got, err := DecodeData(AppendData(nil, &d))
		return err == nil && got.Transfer == xfer && got.Seq == seq &&
			got.Total == total && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDataErrors(t *testing.T) {
	good := AppendData(nil, &Data{Transfer: 1, Seq: 0, Total: 1, Payload: []byte("x")})

	if _, err := DecodeData(good[:5]); err != ErrShort {
		t.Errorf("short datagram: err = %v, want ErrShort", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0xAA
	if _, err := DecodeData(bad); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), good...)
	bad[2] = TypeAck
	if _, err := DecodeData(bad); err != ErrBadType {
		t.Errorf("wrong type: err = %v, want ErrBadType", err)
	}
	// Truncated payload: header claims more bytes than present.
	if _, err := DecodeData(good[:len(good)-1]); err != ErrShort {
		t.Errorf("truncated payload: err = %v, want ErrShort", err)
	}
	// Seq >= Total is rejected.
	bad = AppendData(nil, &Data{Transfer: 1, Seq: 5, Total: 5, Payload: nil})
	if _, err := DecodeData(bad); err == nil {
		t.Error("seq >= total accepted")
	}
	// Total == 0 rejected.
	bad = AppendData(nil, &Data{Transfer: 1, Seq: 0, Total: 0, Payload: nil})
	if _, err := DecodeData(bad); err == nil {
		t.Error("zero total accepted")
	}
}

func TestOversizedPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized payload did not panic")
		}
	}()
	AppendData(nil, &Data{Total: 1, Payload: make([]byte, 0x10000)})
}

func TestAckRoundTrip(t *testing.T) {
	a := Ack{
		Transfer: 3, AckSeq: 9, Received: 500, Delta: 64,
		Frag: bitmap.Fragment{Start: 128, Words: []uint64{0xDEADBEEF, 0, ^uint64(0)}},
	}
	buf := AppendAck(nil, &a)
	got, err := DecodeAck(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Transfer != a.Transfer || got.AckSeq != a.AckSeq || got.Received != a.Received || got.Delta != a.Delta {
		t.Fatalf("header mismatch: %+v vs %+v", got, a)
	}
	if got.Frag.Start != a.Frag.Start || len(got.Frag.Words) != len(a.Frag.Words) {
		t.Fatalf("fragment mismatch: %+v vs %+v", got.Frag, a.Frag)
	}
	for i := range a.Frag.Words {
		if got.Frag.Words[i] != a.Frag.Words[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got.Frag.Words[i], a.Frag.Words[i])
		}
	}
}

func TestAckRoundTripProperty(t *testing.T) {
	f := func(xfer, ackSeq, recv, delta uint32, start16 uint16, words []uint64) bool {
		if len(words) > 200 {
			words = words[:200]
		}
		a := Ack{
			Transfer: xfer, AckSeq: ackSeq, Received: recv, Delta: delta,
			Frag: bitmap.Fragment{Start: int(start16) * 64, Words: words},
		}
		got, err := DecodeAck(AppendAck(nil, &a))
		if err != nil {
			return false
		}
		if got.Frag.Start != a.Frag.Start || len(got.Frag.Words) != len(words) {
			return false
		}
		for i := range words {
			if got.Frag.Words[i] != words[i] {
				return false
			}
		}
		return got.AckSeq == ackSeq && got.Received == recv && got.Delta == delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAckUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned fragment did not panic")
		}
	}()
	AppendAck(nil, &Ack{Frag: bitmap.Fragment{Start: 5}})
}

func TestDecodeAckErrors(t *testing.T) {
	good := AppendAck(nil, &Ack{Frag: bitmap.Fragment{Start: 0, Words: []uint64{1, 2}}})
	if _, err := DecodeAck(good[:10]); err != ErrShort {
		t.Errorf("short: %v", err)
	}
	if _, err := DecodeAck(good[:len(good)-3]); err != ErrShort {
		t.Errorf("truncated words: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[2] = TypeData
	if _, err := DecodeAck(bad); err != ErrBadType {
		t.Errorf("wrong type: %v", err)
	}
	// Corrupt the fragment start to an unaligned value.
	bad = append([]byte(nil), good...)
	bad[23] = 3 // low byte of start
	if _, err := DecodeAck(bad); err == nil {
		t.Error("unaligned start accepted")
	}
}

func TestMaxFragWords(t *testing.T) {
	if got := MaxFragWords(1024); got != (1024-AckHeaderLen)/8 {
		t.Fatalf("MaxFragWords(1024) = %d", got)
	}
	if got := MaxFragWords(10); got != 1 {
		t.Fatalf("MaxFragWords(10) = %d, want floor of 1", got)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Transfer: 11, ObjectSize: 40 << 20, PacketSize: 1024}
	got, err := DecodeHello(AppendHello(nil, &h))
	if err != nil {
		t.Fatal(err)
	}
	if got.Transfer != h.Transfer || got.ObjectSize != h.ObjectSize || got.PacketSize != h.PacketSize || got.Stripes != nil {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
}

func TestHelloRejectsZeroPacketSize(t *testing.T) {
	buf := AppendHello(nil, &Hello{Transfer: 1, ObjectSize: 10, PacketSize: 0})
	if _, err := DecodeHello(buf); err == nil {
		t.Fatal("zero packet size accepted")
	}
}

func TestCompleteRoundTrip(t *testing.T) {
	c := Complete{Transfer: 2, Received: 40 << 20}
	got, err := DecodeComplete(AppendComplete(nil, &c))
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
}

// TestWindowByte: the receive window rides in the fourth byte of HAVE, which
// builds before the window wrote zero and none read. So the frame a
// windowless receiver writes reads as "no window"; a frame with the byte set
// is that frame in every other byte; and the logarithm rounds a buffer share
// down, never up.
func TestWindowByte(t *testing.T) {
	have := AppendHave(nil, &Have{Transfer: 5, Received: 1, Words: []uint64{1}, Window: 17})
	plain := AppendHave(nil, &Have{Transfer: 5, Received: 1, Words: []uint64{1}})
	if have[3] != 17 || plain[3] != 0 || !bytes.Equal(have[4:], plain[4:]) {
		t.Fatalf("HAVE with a window % x, without % x", have, plain)
	}
	if got, err := DecodeHave(have); err != nil || got.Window != 17 || got.Window.Bytes() != 128<<10 {
		t.Fatalf("HAVE window %d (%d bytes), err %v; want 17 (128 KiB)", got.Window, got.Window.Bytes(), err)
	}
	if got, err := DecodeHave(plain); err != nil || got.Window != 0 || got.Window.Bytes() != 0 {
		t.Fatalf("a windowless HAVE reads as window %d (%d bytes), err %v; want none", got.Window, got.Window.Bytes(), err)
	}
	for _, c := range []struct {
		bytes int
		want  Window
	}{{-1, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {2 << 20, 21}, {2<<20 - 1, 20}, {3 << 20, 21}} {
		if got := WindowOf(c.bytes); got != c.want {
			t.Errorf("WindowOf(%d) = %d, want %d", c.bytes, got, c.want)
		}
		if got := WindowOf(c.bytes).Bytes(); got > max(c.bytes, 0) {
			t.Errorf("a window of %d bytes advertises %d", c.bytes, got)
		}
	}
	// A hostile logarithm is a window nothing fills, not an overflow.
	if got := Window(255).Bytes(); got <= 0 {
		t.Fatalf("Window(255).Bytes() = %d", got)
	}
}

func TestAbortRoundTrip(t *testing.T) {
	for _, reason := range []AbortReason{
		AbortUnspecified, AbortDuplicateTransfer, AbortIdleTimeout,
		AbortStalled, AbortCancelled, AbortBadHello, AbortUnsupported,
		AbortDigestMismatch, AbortReason(8), AbortReason(9), AbortReason(200),
	} {
		a := Abort{Transfer: 9, Reason: reason}
		got, err := DecodeAbort(AppendAbort(nil, &a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
		}
		if got.Reason.String() == "" {
			t.Fatalf("reason %d has empty String()", reason)
		}
		// The reserved codes of retired refusals print as numbers.
		if reason > AbortDigestMismatch && got.Reason.String() != fmt.Sprintf("reason(%d)", reason) {
			t.Fatalf("reason %d prints as %q", reason, got.Reason)
		}
	}
}

func TestDecodeAbortErrors(t *testing.T) {
	good := AppendAbort(nil, &Abort{Transfer: 1, Reason: AbortStalled})
	if _, err := DecodeAbort(good[:AbortLen-1]); err != ErrShort {
		t.Errorf("short: %v", err)
	}
	bad := append([]byte{}, good...)
	bad[1] = 0
	if _, err := DecodeAbort(bad); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	// A HELLO frame is long enough to pass the length check but has the
	// wrong type byte.
	if _, err := DecodeAbort(AppendHello(nil, &Hello{PacketSize: 1})); err != ErrBadType {
		t.Errorf("wrong type: %v", err)
	}
}

// TestControlLen: exactly the five control types frame on the stream.
func TestControlLen(t *testing.T) {
	cases := map[uint8]int{
		TypeHello:    len(AppendHello(nil, &Hello{PacketSize: 1})),
		TypeComplete: len(AppendComplete(nil, &Complete{})),
		TypeAbort:    len(AppendAbort(nil, &Abort{})),
		TypeHave:     HaveFixedLen,
		TypeCheck:    len(AppendCheck(nil, &Check{})),
	}
	for typ := 0; typ < 256; typ++ {
		got, err := ControlLen(uint8(typ))
		want, ok := cases[uint8(typ)]
		if !ok {
			// Data and ack are datagram types, never framed on the control
			// stream; every other code is unknown or retired.
			if err != ErrBadType {
				t.Errorf("ControlLen(%d) err = %v, want ErrBadType", typ, err)
			}
			continue
		}
		if err != nil || got != want {
			t.Errorf("ControlLen(%d) = (%d, %v), want (%d, nil)", typ, got, err, want)
		}
	}
}

func TestPeekType(t *testing.T) {
	msgs := map[uint8][]byte{
		TypeData:     AppendData(nil, &Data{Total: 1}),
		TypeAck:      AppendAck(nil, &Ack{}),
		TypeHello:    AppendHello(nil, &Hello{PacketSize: 1}),
		TypeComplete: AppendComplete(nil, &Complete{}),
		TypeAbort:    AppendAbort(nil, &Abort{Reason: AbortIdleTimeout}),
		TypeHave:     AppendHave(nil, &Have{Words: []uint64{0}}),
		TypeCheck:    AppendCheck(nil, &Check{}),
	}
	for want, buf := range msgs {
		got, err := PeekType(buf)
		if err != nil || got != want {
			t.Errorf("PeekType = (%d, %v), want (%d, nil)", got, err, want)
		}
	}
	if _, err := PeekType([]byte{0xF0}); err != ErrShort {
		t.Errorf("short peek: %v", err)
	}
	if _, err := PeekType([]byte{0, 0, 1}); err != ErrBadMagic {
		t.Errorf("bad magic peek: %v", err)
	}
	// Unknown, and the retired HELLO-ACK, HELLOX, RESUME and TRACE.
	for _, typ := range []uint8{99, 5, 7, 8, 10} {
		if _, err := PeekType([]byte{0xF0, 0xB5, typ}); err != ErrBadType {
			t.Errorf("type %d peek: %v", typ, err)
		}
	}
}

// Fuzz-ish property: decoders never panic on arbitrary bytes.
func TestDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		DecodeData(b)
		DecodeAck(b)
		DecodeHello(b)
		DecodeComplete(b)
		DecodeAbort(b)
		DecodeHave(b)
		DecodeCheck(b)
		PeekType(b)
		TrailerLen(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendData(b *testing.B) {
	payload := make([]byte, 1024)
	buf := make([]byte, 0, 2048)
	d := Data{Transfer: 1, Seq: 5, Total: 100, Payload: payload}
	b.ReportAllocs()
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		buf = AppendData(buf[:0], &d)
	}
}

func BenchmarkDecodeAck(b *testing.B) {
	a := Ack{Frag: bitmap.Fragment{Start: 0, Words: make([]uint64, 120)}}
	buf := AppendAck(nil, &a)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAck(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDataChecksumRoundTrip(t *testing.T) {
	d := Data{Transfer: 1, Seq: 0, Total: 2, Payload: []byte("integrity matters"), Checksum: true}
	buf := AppendData(nil, &d)
	got, err := DecodeData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Checksum {
		t.Fatal("decoded packet does not report a verified checksum")
	}
	if !bytes.Equal(got.Payload, d.Payload) {
		t.Fatal("payload mismatch")
	}
}

// TestDataHeaderIsTheFrameLessItsPayload: a gathered datagram — the header
// AppendDataHeader frames, then the payload where it lies — is byte for byte
// the one AppendData builds, checksummed or not.
func TestDataHeaderIsTheFrameLessItsPayload(t *testing.T) {
	for _, sum := range []bool{false, true} {
		d := Data{Transfer: 7, Seq: 3, Total: 9, Payload: []byte("gathered, not staged"), Checksum: sum}
		hdr := AppendDataHeader(nil, &d)
		if len(hdr) != DataHeaderLen {
			t.Fatalf("checksum=%v: header is %d bytes, want %d", sum, len(hdr), DataHeaderLen)
		}
		if !bytes.Equal(append(hdr, d.Payload...), AppendData(nil, &d)) {
			t.Fatalf("checksum=%v: header plus payload differs from AppendData", sum)
		}
	}
}

func TestDataChecksumDetectsCorruption(t *testing.T) {
	d := Data{Transfer: 1, Seq: 0, Total: 2, Payload: []byte("integrity matters"), Checksum: true}
	buf := AppendData(nil, &d)
	buf[len(buf)-1] ^= 0x40 // flip a payload bit
	if _, err := DecodeData(buf); err != ErrChecksum {
		t.Fatalf("corrupted payload decoded with err=%v, want ErrChecksum", err)
	}
	// Corrupting the stored CRC itself is also caught.
	buf2 := AppendData(nil, &d)
	buf2[18] ^= 0x01
	if _, err := DecodeData(buf2); err != ErrChecksum {
		t.Fatalf("corrupted CRC decoded with err=%v, want ErrChecksum", err)
	}
}

func TestDataWithoutChecksumIgnoresCRCField(t *testing.T) {
	d := Data{Transfer: 1, Seq: 0, Total: 2, Payload: []byte("x")}
	buf := AppendData(nil, &d)
	buf[len(buf)-1] ^= 0xFF // corrupt payload; no checksum flag, so undetected
	got, err := DecodeData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum {
		t.Fatal("packet without checksum flag reported one")
	}
}

func TestChecksumPropertyAnyFlipDetected(t *testing.T) {
	f := func(payload []byte, pos uint16, bit uint8) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		d := Data{Transfer: 9, Seq: 0, Total: 1, Payload: payload, Checksum: true}
		buf := AppendData(nil, &d)
		idx := DataHeaderLen + int(pos)%len(payload)
		buf[idx] ^= 1 << (bit % 8)
		_, err := DecodeData(buf)
		return err == ErrChecksum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteDigestRoundTrip(t *testing.T) {
	// Regression: the digest field sits after the 8-byte Received count;
	// a misaligned read once returned Received's low bits instead.
	c := Complete{Transfer: 7, Received: 0x1122334455667788, Digest: 0xCAFEBABE}
	got, err := DecodeComplete(AppendComplete(nil, &c))
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestContentTagIsTheIdentityPrefix(t *testing.T) {
	a, b := [ContentDigestLen]byte{0xA1, 0xB2, 0xC3, 0xD4, 0xFF}, [ContentDigestLen]byte{0xA1, 0xB2, 0xC3, 0xD5}
	if ContentTag(a) != 0xA1B2C3D4 {
		t.Fatalf("ContentTag = %08x, want the identity's first four bytes", ContentTag(a))
	}
	if ContentTag(a) == ContentTag(b) {
		t.Fatal("tags collide on identities that differ in their first four bytes")
	}
}
