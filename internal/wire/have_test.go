package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

func validHave() *Have {
	return &Have{
		Transfer: 21,
		Received: 130,
		Words:    []uint64{^uint64(0), ^uint64(0), 0b11},
		Window:   19,
	}
}

func TestHaveRoundTrip(t *testing.T) {
	h := validHave()
	buf := AppendHave(nil, h)
	if len(buf) != HaveLen(len(h.Words)) {
		t.Fatalf("encoded length %d, want %d", len(buf), HaveLen(len(h.Words)))
	}
	got, err := DecodeHave(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Transfer != h.Transfer || got.Received != h.Received || got.Window != h.Window {
		t.Fatalf("header fields changed: %+v vs %+v", got, h)
	}
	if len(got.Words) != len(h.Words) {
		t.Fatalf("word count %d, want %d", len(got.Words), len(h.Words))
	}
	for i, w := range h.Words {
		if got.Words[i] != w {
			t.Fatalf("word %d: %#x, want %#x", i, got.Words[i], w)
		}
	}
}

func TestHaveRejectsTruncatedBitmap(t *testing.T) {
	good := AppendHave(nil, validHave())
	// Every truncation, including ones that cut into the word trailer,
	// must come back ErrShort — never a partial bitmap.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeHave(good[:n]); !errors.Is(err, ErrShort) {
			t.Fatalf("truncation to %d bytes: err=%v, want ErrShort", n, err)
		}
	}
}

func TestHaveRejectsBadWordCounts(t *testing.T) {
	good := AppendHave(nil, validHave())
	for _, n := range []uint32{0, MaxHaveWords + 1, 0xFFFFFFFF} {
		bad := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(bad[12:], n)
		if _, err := DecodeHave(bad); err == nil {
			t.Fatalf("word count %d accepted", n)
		}
	}
}

func TestHaveWordCountMatchesDecode(t *testing.T) {
	good := AppendHave(nil, validHave())
	n, err := HaveWordCount(good)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(validHave().Words) {
		t.Fatalf("HaveWordCount=%d, want %d", n, len(validHave().Words))
	}
	if _, err := HaveWordCount(good[:HaveFixedLen-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("short prefix: err=%v, want ErrShort", err)
	}
}

func TestAppendHavePanicsOnBadWordCounts(t *testing.T) {
	for _, words := range [][]uint64{nil, make([]uint64, MaxHaveWords+1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AppendHave accepted %d words", len(words))
				}
			}()
			AppendHave(nil, &Have{Transfer: 1, Words: words})
		}()
	}
}

// TestPeekTypeAndControlLenCoverResumeHave: a HAVE frames by its fixed
// prefix and a trailer its word count sizes, and the retired RESUME type is
// refused like an unknown one.
func TestPeekTypeAndControlLenCoverResumeHave(t *testing.T) {
	h := AppendHave(nil, validHave())
	typ, err := PeekType(h)
	if err != nil || typ != TypeHave {
		t.Fatalf("PeekType=%d err=%v, want %d", typ, err, TypeHave)
	}
	if n, err := ControlLen(typ); err != nil || n != HaveFixedLen {
		t.Fatalf("ControlLen(%d)=%d err=%v, want %d", typ, n, err, HaveFixedLen)
	}
	if n, err := TrailerLen(h[:HaveFixedLen]); err != nil || HaveFixedLen+n != len(h) {
		t.Fatalf("TrailerLen=%d err=%v, want %d", n, err, len(h)-HaveFixedLen)
	}
	// The retired RESUME type and one past the last known type (TypeCheck)
	// must both be rejected.
	for _, retired := range []uint8{8, TypeCheck + 1} {
		bad := append([]byte(nil), h...)
		bad[2] = retired
		if _, err := PeekType(bad); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d accepted by PeekType", retired)
		}
		if _, err := ControlLen(retired); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d given a length by ControlLen", retired)
		}
	}
}
