package wire

import (
	"errors"
	"strings"
	"testing"
)

func digest(fill byte) (d [32]byte) {
	for i := range d {
		d[i] = fill + byte(i)
	}
	return d
}

func validCheck() *Check {
	return &Check{
		Transfer:   7,
		ObjectSize: 40 << 20,
		PacketSize: 1024,
		Flags:      CheckFlagDedup,
		Digest:     digest(0x10),
		Trace:      [16]byte{0xAB, 1, 2, 3},
	}
}

func TestCheckRoundTrip(t *testing.T) {
	c := validCheck()
	buf := AppendCheck(nil, c)
	if len(buf) != CheckLen {
		t.Fatalf("frame length %d, want %d", len(buf), CheckLen)
	}
	got, err := DecodeCheck(buf)
	if err != nil {
		t.Fatalf("DecodeCheck: %v", err)
	}
	c.Version = CheckVersion // zero on encode means "current"
	if got != *c {
		t.Fatalf("round trip changed the frame: %+v vs %+v", got, c)
	}
}

// TestCheckRoundTripStriped: a striped transfer's announcement is the same
// fixed-length CHECK — the whole object's identity, no per-stripe digests —
// followed by the HELLO carrying the stripe table, and the pair decodes
// frame by frame from the one buffer a sender writes.
func TestCheckRoundTripStriped(t *testing.T) {
	c := validCheck()
	c.ObjectSize = 10000
	h := &Hello{Transfer: c.Transfer, ObjectSize: c.ObjectSize, PacketSize: c.PacketSize, Stripes: []StripeDesc{
		{Transfer: 7, Offset: 0, Length: 6144}, {Transfer: 8, Offset: 6144, Length: 3856},
	}}
	buf := AppendHello(AppendCheck(nil, c), h)
	if len(buf) != CheckLen+HelloLen+2*StripeDescLen {
		t.Fatalf("announcement length %d, want %d", len(buf), CheckLen+HelloLen+2*StripeDescLen)
	}
	got, err := DecodeCheck(buf)
	if err != nil || got.Digest != c.Digest || got.ObjectSize != c.ObjectSize {
		t.Fatalf("DecodeCheck = %+v, %v", got, err)
	}
	hello, err := DecodeHello(buf[CheckLen:])
	if err != nil || len(hello.Stripes) != 2 || hello.Stripes[1] != h.Stripes[1] {
		t.Fatalf("DecodeHello = %+v, %v", hello, err)
	}
}

// TestCheckRejectsOtherVersions: the version names the digest scheme and the
// announcement's layout, so earlier revisions (1, plain SHA-256; 2, stripe
// digests beside TRACE, HELLOX and HELLO-ACK) are refused exactly like a
// future one — by the version byte alone, however short the rest.
func TestCheckRejectsOtherVersions(t *testing.T) {
	for _, v := range []uint8{CheckVersion + 1, 1, 2} {
		buf := AppendCheck(nil, validCheck())
		buf[3] = v
		for _, b := range [][]byte{buf, buf[:4]} {
			_, err := DecodeCheck(b)
			if !errors.Is(err, ErrCheckVersion) {
				t.Fatalf("version %d (%d bytes) err = %v, want ErrCheckVersion", v, len(b), err)
			}
			if !strings.Contains(err.Error(), "speak") {
				t.Fatalf("version error %q does not name the spoken revision", err)
			}
		}
	}
}

func TestCheckRejectsBadFrames(t *testing.T) {
	good := AppendCheck(nil, validCheck())
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"truncated", good[:CheckLen-1], ErrShort},
		{"bad magic", append([]byte{0, 0}, good[2:]...), ErrBadMagic},
		// Long enough to pass the length check, so the type byte (not the
		// length) must reject it.
		{"wrong type", func() []byte {
			b := append([]byte(nil), good...)
			b[2] = TypeHave
			return b
		}(), ErrBadType},
	}
	for _, tc := range cases {
		if _, err := DecodeCheck(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	zeroPkt := AppendCheck(nil, validCheck())
	zeroPkt[17], zeroPkt[18], zeroPkt[19], zeroPkt[20] = 0, 0, 0, 0
	if _, err := DecodeCheck(zeroPkt); err == nil {
		t.Fatal("zero packet size accepted")
	}
	zeroObj := validCheck()
	zeroObj.ObjectSize = 0
	if _, err := DecodeCheck(AppendCheck(nil, zeroObj)); err == nil {
		t.Fatal("zero object size accepted")
	}
}

func TestCheckPeekAndControlLen(t *testing.T) {
	buf := AppendCheck(nil, validCheck())
	typ, err := PeekType(buf)
	if err != nil || typ != TypeCheck {
		t.Fatalf("PeekType = (%d, %v), want (%d, nil)", typ, err, TypeCheck)
	}
	n, err := ControlLen(TypeCheck)
	if err != nil || n != CheckLen {
		t.Fatalf("ControlLen(TypeCheck) = (%d, %v), want (%d, nil)", n, err, CheckLen)
	}
	if n, err := TrailerLen(buf); err != nil || n != 0 {
		t.Fatalf("TrailerLen(CHECK) = (%d, %v), want (0, nil): the frame is fixed-length", n, err)
	}
}
