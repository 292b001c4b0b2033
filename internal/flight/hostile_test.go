package flight

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/hpcnet/fobs/internal/obs"
)

// frameBytes is one frame of a sender endpoint of transfer 1: header, then
// payload, declared as plen bytes.
func frameBytes(typ uint8, plen int, payload []byte) []byte {
	h := [frameHeaderLen]byte{frameMarker, typ, uint8(obs.RoleSender)}
	be32(h[4:], 1)
	be32(h[8:], uint32(plen))
	return append(h[:], payload...)
}

// startFrame announces the endpoint with a claimed packet count.
func startFrame(packets uint32) []byte {
	p := make([]byte, startPayloadLen)
	be32(p[0:], packets)
	be32(p[4:], 1024)
	return frameBytes(frameStart, len(p), p)
}

// hugePacketClaim is 48 bytes: the magic and one start frame claiming
// 0xFFFFFFF0 packets, and nothing else.
func hugePacketClaim() []byte {
	return append([]byte(fileMagic), startFrame(0xFFFFFFF0)...)
}

// hugeTransmitCount is 108 bytes: a one-packet endpoint whose one record
// acknowledges its packet at transmit count 2^31, sealed by a trailer that
// owns to one dropped record (so the analyzer cannot hold the count to the
// stream's own sends).
func hugeTransmitCount() []byte {
	d := append([]byte(fileMagic), startFrame(1)...)
	var rec [recordBytes]byte
	w0, w1, w2 := Record{Kind: KindAcked, Seq: 0, Aux: 1 << 31}.words()
	be64(rec[0:], w0)
	be64(rec[8:], w1)
	be64(rec[16:], w2)
	d = append(d, frameBytes(frameRecords, len(rec), rec[:])...)
	var end [12]byte
	be64(end[0:], 1)
	return append(d, frameBytes(frameEnd, len(end), end[:])...)
}

// hugeFrameClaim is a start frame, then a records frame header claiming a
// 1 GiB payload the file does not hold.
func hugeFrameClaim() []byte {
	d := append([]byte(fileMagic), startFrame(1)...)
	return append(d, frameBytes(frameRecords, 1<<30, nil)...)
}

// TestHostileRecordingsStayBounded: what reading and analysing a recording
// costs tracks the bytes it holds, not the counts it claims. Each crafted
// file of a few dozen bytes analyses or is refused as corrupt, with well
// under 64 MiB allocated on the way.
func TestHostileRecordingsStayBounded(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		size int
	}{
		{"packet count claim", hugePacketClaim(), 48},
		{"transmit count claim", hugeTransmitCount(), 108},
		{"frame length claim", hugeFrameClaim(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.size != 0 && len(tc.data) != tc.size {
				t.Fatalf("crafted file is %d bytes, want %d", len(tc.data), tc.size)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := readAnalyzeSeries(tc.data)
			runtime.ReadMemStats(&after)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want an analysis or ErrCorrupt", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
				t.Fatalf("a %d-byte recording cost %d MiB of allocation", len(tc.data), alloc>>20)
			}
		})
	}
}

// readAnalyzeSeries runs what fobs-analyze runs over a recording: Read,
// then Analyze and SeriesFor on every endpoint.
func readAnalyzeSeries(data []byte) error {
	eps, err := Read(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for _, ep := range eps {
		if _, err := Analyze(ep); err != nil {
			return err
		}
		SeriesFor(ep, 60)
	}
	return nil
}
