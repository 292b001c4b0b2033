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
	}
}

func TestCheckRoundTrip(t *testing.T) {
	c := validCheck()
	buf := AppendCheck(nil, c)
	if len(buf) != CheckFixedLen {
		t.Fatalf("unstriped frame length %d, want %d", len(buf), CheckFixedLen)
	}
	got, err := DecodeCheck(buf)
	if err != nil {
		t.Fatalf("DecodeCheck: %v", err)
	}
	if got.Version != CheckVersion || got.Flags != c.Flags || got.Transfer != c.Transfer ||
		got.ObjectSize != c.ObjectSize || got.PacketSize != c.PacketSize ||
		got.Digest != c.Digest || len(got.StripeDigests) != 0 {
		t.Fatalf("round trip changed the frame: %+v vs %+v", got, c)
	}
}

func TestCheckRoundTripStriped(t *testing.T) {
	c := validCheck()
	c.Flags |= CheckFlagVerify
	c.StripeDigests = [][32]byte{digest(1), digest(2), digest(3)}
	buf := AppendCheck(nil, c)
	if len(buf) != CheckLen(3) {
		t.Fatalf("striped frame length %d, want %d", len(buf), CheckLen(3))
	}
	got, err := DecodeCheck(buf)
	if err != nil {
		t.Fatalf("DecodeCheck: %v", err)
	}
	if len(got.StripeDigests) != 3 {
		t.Fatalf("stripe digest count %d, want 3", len(got.StripeDigests))
	}
	for i := range got.StripeDigests {
		if got.StripeDigests[i] != c.StripeDigests[i] {
			t.Fatalf("stripe %d digest changed: %x vs %x", i, got.StripeDigests[i], c.StripeDigests[i])
		}
	}
	n, err := CheckStripeCount(buf)
	if err != nil || n != 3 {
		t.Fatalf("CheckStripeCount = (%d, %v), want (3, nil)", n, err)
	}
}

// TestCheckRejectsOtherVersions: the version names the digest scheme, so
// the previous revision (1, plain SHA-256) is refused exactly like a future
// one.
func TestCheckRejectsOtherVersions(t *testing.T) {
	for _, v := range []uint8{CheckVersion + 1, 1} {
		buf := AppendCheck(nil, validCheck())
		buf[3] = v
		_, err := DecodeCheck(buf)
		if !errors.Is(err, ErrCheckVersion) {
			t.Fatalf("version %d err = %v, want ErrCheckVersion", v, err)
		}
		if !strings.Contains(err.Error(), "speak") {
			t.Fatalf("version error %q does not name the spoken revision", err)
		}
	}
}

func TestCheckRejectsBadFrames(t *testing.T) {
	good := AppendCheck(nil, validCheck())
	striped := validCheck()
	striped.StripeDigests = [][32]byte{digest(1), digest(2)}
	stripedBuf := AppendCheck(nil, striped)
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"truncated prefix", good[:CheckFixedLen-1], ErrShort},
		{"truncated trailer", stripedBuf[:len(stripedBuf)-1], ErrShort},
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
	zeroPkt[18], zeroPkt[19], zeroPkt[20], zeroPkt[21] = 0, 0, 0, 0
	if _, err := DecodeCheck(zeroPkt); err == nil {
		t.Fatal("zero packet size accepted")
	}
	overcount := AppendCheck(nil, validCheck())
	overcount[5] = MaxStreams + 1
	if _, err := DecodeCheck(overcount); err == nil {
		t.Fatal("stripe count beyond MaxStreams accepted")
	}
	if _, err := CheckStripeCount(overcount); err == nil {
		t.Fatal("CheckStripeCount accepted a count beyond MaxStreams")
	}
}

func TestAppendCheckPanicsOnTooManyStripes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendCheck accepted MaxStreams+1 stripe digests")
		}
	}()
	c := validCheck()
	c.StripeDigests = make([][32]byte, MaxStreams+1)
	AppendCheck(nil, c)
}

func TestCheckPeekAndControlLen(t *testing.T) {
	buf := AppendCheck(nil, validCheck())
	typ, err := PeekType(buf)
	if err != nil || typ != TypeCheck {
		t.Fatalf("PeekType = (%d, %v), want (%d, nil)", typ, err, TypeCheck)
	}
	n, err := ControlLen(TypeCheck)
	if err != nil || n != CheckFixedLen {
		t.Fatalf("ControlLen(TypeCheck) = (%d, %v), want (%d, nil)", n, err, CheckFixedLen)
	}
}
