package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

func validResume() *Resume {
	return &Resume{
		Streams:    1,
		Transfer:   21,
		ObjectSize: 65536,
		PacketSize: 1024,
		Digest:     0xDEADBEEF,
	}
}

func TestResumeRoundTrip(t *testing.T) {
	r := validResume()
	buf := AppendResume(nil, r)
	if len(buf) != ResumeLen {
		t.Fatalf("encoded length %d, want %d", len(buf), ResumeLen)
	}
	got, err := DecodeResume(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Version 0 on encode means "current".
	if got.Version != ResumeVersion {
		t.Fatalf("decoded version %d, want %d", got.Version, ResumeVersion)
	}
	if got.Streams != r.Streams || got.Transfer != r.Transfer ||
		got.ObjectSize != r.ObjectSize || got.PacketSize != r.PacketSize ||
		got.Digest != r.Digest {
		t.Fatalf("fields changed: %+v vs %+v", got, r)
	}
}

func TestResumeDefaultsStreamsToOne(t *testing.T) {
	r := validResume()
	r.Streams = 0
	got, err := DecodeResume(AppendResume(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Streams != 1 {
		t.Fatalf("zero streams encoded as %d, want 1", got.Streams)
	}
}

func TestResumeRejectsFutureVersion(t *testing.T) {
	buf := AppendResume(nil, validResume())
	buf[3] = ResumeVersion + 1
	_, err := DecodeResume(buf)
	if !errors.Is(err, ErrResumeVersion) {
		t.Fatalf("future version decoded with err=%v, want ErrResumeVersion", err)
	}
}

func TestResumeRejectsBadFrames(t *testing.T) {
	good := AppendResume(nil, validResume())
	for n := 0; n < len(good); n++ {
		if _, err := DecodeResume(good[:n]); !errors.Is(err, ErrShort) {
			t.Fatalf("truncation to %d bytes: err=%v, want ErrShort", n, err)
		}
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0x12
	if _, err := DecodeResume(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err=%v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), good...)
	bad[2] = TypeHello
	if _, err := DecodeResume(bad); !errors.Is(err, ErrBadType) {
		t.Fatalf("wrong type: err=%v, want ErrBadType", err)
	}
	// Zero packet size and out-of-range stream counts are structural junk.
	bad = append([]byte(nil), good...)
	binary.BigEndian.PutUint32(bad[18:], 0)
	if _, err := DecodeResume(bad); err == nil {
		t.Fatal("zero packet size accepted")
	}
	for _, streams := range []uint16{0, MaxStreams + 1} {
		bad = append([]byte(nil), good...)
		binary.BigEndian.PutUint16(bad[4:], streams)
		if _, err := DecodeResume(bad); err == nil {
			t.Fatalf("stream count %d accepted", streams)
		}
	}
}

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

func TestPeekTypeAndControlLenCoverResumeHave(t *testing.T) {
	r := AppendResume(nil, validResume())
	h := AppendHave(nil, validHave())
	for _, tc := range []struct {
		frame []byte
		typ   uint8
		flen  int
	}{
		{r, TypeResume, ResumeLen},
		{h, TypeHave, HaveFixedLen},
	} {
		typ, err := PeekType(tc.frame)
		if err != nil || typ != tc.typ {
			t.Fatalf("PeekType=%d err=%v, want %d", typ, err, tc.typ)
		}
		n, err := ControlLen(typ)
		if err != nil || n != tc.flen {
			t.Fatalf("ControlLen(%d)=%d err=%v, want %d", typ, n, err, tc.flen)
		}
	}
	// One past the last known type (TypeCheck) must still be rejected.
	bad := append([]byte(nil), r...)
	bad[2] = TypeCheck + 1
	if _, err := PeekType(bad); !errors.Is(err, ErrBadType) {
		t.Fatalf("type %d accepted by PeekType", TypeCheck+1)
	}
}
