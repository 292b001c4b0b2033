// The HELLO's stripe table. It replaced the HELLOX frame, so these tests keep
// that frame's names: what they pin — the round trip, the framer's arithmetic,
// the tiling checks, the encoder's bounds — is the table's now.
package wire_test

import (
	"errors"
	"testing"

	"github.com/hpcnet/fobs/internal/wire"
)

func validStriped() *wire.Hello {
	return &wire.Hello{
		Transfer:   11,
		ObjectSize: 10000,
		PacketSize: 1024,
		Stripes: []wire.StripeDesc{
			{Transfer: 11, Offset: 0, Length: 4096},
			{Transfer: 12, Offset: 4096, Length: 4096},
			{Transfer: 13, Offset: 8192, Length: 1808},
		},
	}
}

func TestHelloXRoundTrip(t *testing.T) {
	h := validStriped()
	buf := wire.AppendHello(nil, h)
	if want := wire.HelloLen + len(h.Stripes)*wire.StripeDescLen; len(buf) != want {
		t.Fatalf("encoded length %d, want %d", len(buf), want)
	}
	got, err := wire.DecodeHello(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Transfer != h.Transfer || got.ObjectSize != h.ObjectSize || got.PacketSize != h.PacketSize {
		t.Fatalf("header fields changed: %+v vs %+v", got, h)
	}
	if len(got.Stripes) != len(h.Stripes) {
		t.Fatalf("stripe count %d, want %d", len(got.Stripes), len(h.Stripes))
	}
	for i, s := range got.Stripes {
		if s != h.Stripes[i] {
			t.Fatalf("stripe %d = %+v, want %+v", i, s, h.Stripes[i])
		}
	}
}

// TestHelloXStripeCountFromPrefix: the stream framer sizes the table from
// the HELLO's fixed prefix alone.
func TestHelloXStripeCountFromPrefix(t *testing.T) {
	buf := wire.AppendHello(nil, validStriped())
	fixed, err := wire.ControlLen(wire.TypeHello)
	if err != nil || fixed != wire.HelloLen {
		t.Fatalf("ControlLen(TypeHello) = (%d, %v), want the fixed prefix %d", fixed, err, wire.HelloLen)
	}
	n, err := wire.TrailerLen(buf[:fixed])
	if err != nil || n != 3*wire.StripeDescLen {
		t.Fatalf("TrailerLen from prefix = (%d, %v), want %d", n, err, 3*wire.StripeDescLen)
	}
	if fixed+n != len(buf) {
		t.Fatalf("framer arithmetic: %d + %d != frame length %d", fixed, n, len(buf))
	}
	if _, err := wire.TrailerLen(buf[:3]); err == nil {
		t.Fatal("3-byte prefix accepted")
	}
	short := wire.AppendHello(nil, &wire.Hello{Transfer: 1, ObjectSize: 9, PacketSize: 4})
	if n, err := wire.TrailerLen(short); err != nil || n != 0 {
		t.Fatalf("short-form TrailerLen = (%d, %v), want (0, nil)", n, err)
	}
	over := append([]byte(nil), buf[:fixed]...)
	over[3] = wire.MaxStreams + 1
	if _, err := wire.TrailerLen(over); err == nil {
		t.Fatal("a stripe count beyond MaxStreams sized a trailer")
	}
}

// TestHelloXVersionGate: the HELLOX frame and its version byte are retired —
// the announcement's one version is the CHECK's — so an earlier build's
// HELLOX, of its own version or a later one, is refused by its type before
// any layout validation, even with a tiling no HELLO could carry.
func TestHelloXVersionGate(t *testing.T) {
	h := validStriped()
	h.Stripes[1].Offset = 9999
	for _, v := range []uint8{1, 2} {
		buf := legacyHelloX(v, h.Transfer, h.ObjectSize, h.PacketSize, h.Stripes)
		if _, err := wire.PeekType(buf); !errors.Is(err, wire.ErrBadType) {
			t.Fatalf("version %d HELLOX: PeekType err = %v, want ErrBadType", v, err)
		}
		if _, err := wire.DecodeHello(buf); !errors.Is(err, wire.ErrBadType) {
			t.Fatalf("version %d HELLOX: DecodeHello err = %v, want ErrBadType", v, err)
		}
	}
}

func TestHelloXDecodeRejections(t *testing.T) {
	good := wire.AppendHello(nil, validStriped())
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"short", good[:wire.HelloLen-1]},
		{"truncated-trailer", good[:len(good)-1]},
		{"bad-magic", corrupt(func(b []byte) { b[0] = 0 })},
		{"bad-type", corrupt(func(b []byte) { b[2] = wire.TypeData })},
		// An earlier build's HELLOX announcing no stripes at all: the
		// retired frame is refused, whatever its table says.
		{"zero-stripes", legacyHelloX(1, 11, 10000, 1024, nil)},
		{"over-max-stripes", corrupt(func(b []byte) { b[3] = 0xFF })},
		{"zero-packet-size", corrupt(func(b []byte) { b[16], b[17], b[18], b[19] = 0, 0, 0, 0 })},
		// Stripe 1's offset nudged: a gap after stripe 0.
		{"gap", corrupt(func(b []byte) { b[wire.HelloLen+wire.StripeDescLen+11]++ })},
		// Stripe 0's length zeroed: empty stripes are meaningless.
		{"empty-stripe", corrupt(func(b []byte) {
			for i := 0; i < 8; i++ {
				b[wire.HelloLen+12+i] = 0
			}
		})},
		// Last stripe's length shrunk: the tiling no longer covers the object.
		{"short-cover", corrupt(func(b []byte) { b[len(b)-1]-- })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := wire.DecodeHello(tc.buf); err == nil {
				t.Fatal("corrupt striped HELLO accepted")
			}
		})
	}
}

func TestAppendHelloXPanicsOnBadStripeCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("%d stripes did not panic", wire.MaxStreams+1)
		}
	}()
	wire.AppendHello(nil, &wire.Hello{PacketSize: 1, Stripes: make([]wire.StripeDesc, wire.MaxStreams+1)})
}

// TestHelloXSingleStripeEquivalence: a one-entry table is legal and
// describes the same transfer as the short form, and the short form's bytes
// are the HELLO as it always was: byte 3, the stripe count, zero.
func TestHelloXSingleStripeEquivalence(t *testing.T) {
	short := wire.Hello{Transfer: 5, ObjectSize: 2048, PacketSize: 1024}
	tabled := short
	tabled.Stripes = []wire.StripeDesc{{Transfer: 5, Offset: 0, Length: 2048}}
	got, err := wire.DecodeHello(wire.AppendHello(nil, &tabled))
	if err != nil {
		t.Fatal(err)
	}
	if got.Transfer != 5 || got.ObjectSize != 2048 || len(got.Stripes) != 1 || got.Stripes[0] != tabled.Stripes[0] {
		t.Fatalf("single-stripe decode: %+v", got)
	}
	b := wire.AppendHello(nil, &short)
	if len(b) != wire.HelloLen || b[3] != 0 {
		t.Fatalf("short-form HELLO % x: want %d bytes, byte 3 zero", b, wire.HelloLen)
	}
}
