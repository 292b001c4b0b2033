// Fuzz target for the recording reader and analyzer: whatever bytes land in
// a .fobrec file, fobs-analyze's path over them — Read, then Analyze and
// SeriesFor on every endpoint — must never panic, and must answer with an
// analysis or ErrCorrupt.
package flight

import (
	"bytes"
	"errors"
	"testing"

	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
)

// twoEndpointRecording is a genuine recording from the writer itself: both
// ends of one two-packet transfer in one file, lifecycle events included.
func twoEndpointRecording() []byte {
	var out bytes.Buffer
	log := NewLog(&out)
	snd := log.StartSender(5, 2, 2048, 1024, 0)
	rcv := log.StartReceiver(5, 2, 2048, 1024)
	for _, r := range []*Recorder{snd, rcv} {
		r.Event(obs.KindCheck, 0)
		r.Event(obs.KindHandshake, 0)
		r.Event(obs.KindRounds, 0)
	}
	snd.BatchSize(2)
	snd.DataSent(0, 1024, 0)
	snd.DataSent(1, 1024, 1)
	rcv.DataReceived(0, 1024, ClassFresh)
	rcv.DataReceived(1, 1024, ClassFresh)
	rcv.AckSent(1, 2, 40)
	snd.AckReceived(1, 2, false)
	snd.AckedSeq(0)
	snd.AckedSeq(1)
	for _, r := range []*Recorder{snd, rcv} {
		r.Event(obs.KindDrain, 0)
		r.Event(obs.KindVerify, 1)
		r.Event(obs.KindComplete, 0)
	}
	snd.Finish(metrics.TransferSnapshot{})
	log.Close()
	return out.Bytes()
}

func FuzzReadRecording(f *testing.F) {
	f.Add(twoEndpointRecording())
	f.Add(hugePacketClaim())
	f.Add(hugeTransmitCount())
	f.Add(hugeFrameClaim())
	f.Add([]byte(fileMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := readAnalyzeSeries(b); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want an analysis or ErrCorrupt", err)
		}
	})
}
