package flight

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
)

func TestRecordWordsRoundTrip(t *testing.T) {
	recs := []Record{
		{At: 0, Kind: KindDataSend, Seq: 0, Aux: 1},
		{At: 123456789 * time.Nanosecond, Kind: KindDataSend, Seq: 42, Aux: 3, Aux2: 7, Size: 1024},
		{At: time.Hour, Kind: KindAckRecv, Seq: 9, Aux: 100, Flag: 1},
		{At: time.Millisecond, Kind: KindEvent, Seq: uint32(obs.KindAbort), Aux: 5},
		{At: 1, Kind: KindDataRecv, Seq: 1<<32 - 1, Flag: ClassRejected, Size: 1<<16 - 1, Aux2: 1<<32 - 1},
	}
	for _, want := range recs {
		got := recordFromWords(want.words())
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// writeSenderRecording drives a complete two-packet sender transfer through
// a Log and returns the encoded file. Packet 1 needs a retransmission
// before its ack arrives, so the stream exercises every sender record kind.
func writeSenderRecording(t *testing.T, snap metrics.TransferSnapshot) []byte {
	t.Helper()
	var out bytes.Buffer
	log := NewLog(&out)
	fr := log.StartSender(7, 2, 2048, 1024, 0)
	if fr == nil {
		t.Fatal("StartSender returned nil recorder on a live log")
	}
	fr.Event(obs.KindHandshake, 0)
	fr.BatchSize(2)
	fr.BatchSize(2) // dedup: must not produce a second record
	fr.DataSent(0, 1024, 0)
	fr.DataSent(1, 1024, 1)
	fr.AckReceived(1, 1, false)
	fr.AckedSeq(0)
	fr.DataSent(1, 1024, 0) // retransmit
	fr.AckReceived(2, 2, false)
	fr.AckedSeq(1)
	fr.Event(obs.KindComplete, 0)
	fr.Finish(snap)
	go log.Close() // concurrent Closes are the core's to serialize (spine.TestLogCloseConcurrent)
	if err := log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out.Bytes()
}

func senderSnapshot() metrics.TransferSnapshot {
	return metrics.TransferSnapshot{
		Transfer:      7,
		Role:          obs.RoleSender,
		PacketsNeeded: 2,
		ObjectBytes:   2048,
		Counts: metrics.Counts{
			PacketsSent:   3,
			Retransmits:   1,
			BytesSent:     3072,
			AcksReceived:  2,
			KnownReceived: 2,
		},
		Outcome: metrics.OutcomeCompleted,
	}
}

func TestLogReadRoundTrip(t *testing.T) {
	data := writeSenderRecording(t, senderSnapshot())
	eps, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(eps) != 1 {
		t.Fatalf("got %d endpoints, want 1", len(eps))
	}
	ep := eps[0]
	if ep.Meta.Transfer != 7 || ep.Meta.Role != obs.RoleSender ||
		ep.Meta.PacketsNeeded != 2 || ep.Meta.PacketSize != 1024 ||
		ep.Meta.ObjectBytes != 2048 || ep.Meta.Schedule != 0 {
		t.Fatalf("meta round trip: %+v", ep.Meta)
	}
	if !ep.Ended || ep.Dropped != 0 {
		t.Fatalf("ended=%v dropped=%d", ep.Ended, ep.Dropped)
	}
	if ep.Snapshot == nil || ep.Snapshot.PacketsSent != 3 || ep.Snapshot.Outcome != metrics.OutcomeCompleted {
		t.Fatalf("trailer snapshot round trip: %+v", ep.Snapshot)
	}
	wantKinds := []Kind{
		KindEvent, KindBatch, KindDataSend, KindDataSend, KindAckRecv,
		KindAcked, KindDataSend, KindAckRecv, KindAcked, KindEvent,
	}
	if len(ep.Records) != len(wantKinds) {
		t.Fatalf("got %d records, want %d: %+v", len(ep.Records), len(wantKinds), ep.Records)
	}
	for i, k := range wantKinds {
		if ep.Records[i].Kind != k {
			t.Errorf("record %d kind = %v, want %v", i, ep.Records[i].Kind, k)
		}
	}
	// Attempt numbers derived from the recorder's transmit table.
	if ep.Records[2].Aux != 1 || ep.Records[3].Aux != 1 || ep.Records[6].Aux != 2 {
		t.Errorf("attempt numbers: %d %d %d, want 1 1 2",
			ep.Records[2].Aux, ep.Records[3].Aux, ep.Records[6].Aux)
	}
	// Timestamps never regress within one endpoint's stream.
	for i := 1; i < len(ep.Records); i++ {
		if ep.Records[i].At < ep.Records[i-1].At {
			t.Fatalf("timestamp regression at record %d", i)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var log *Log
	if fr := log.StartSender(0, 1, 1024, 1024, 0); fr != nil {
		t.Fatal("nil log handed out a recorder")
	}
	if err := log.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	var fr *Recorder
	fr.DataSent(0, 1024, 0)
	fr.AckReceived(0, 1, false)
	fr.AckedSeq(0)
	fr.BatchSize(4)
	fr.DataReceived(0, 1024, ClassFresh)
	fr.AckSent(0, 1, 64)
	fr.Event(obs.KindComplete, 0)
	fr.Finish(metrics.TransferSnapshot{})
}

func TestCloseSealsUnfinishedRecorders(t *testing.T) {
	var out bytes.Buffer
	log := NewLog(&out)
	fr := log.StartReceiver(3, 4, 4096, 1024)
	fr.DataReceived(0, 1024, ClassFresh)
	if err := log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Records after Close are discarded, not crashed on.
	fr.DataReceived(1, 1024, ClassFresh)
	eps, err := Read(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(eps) != 1 || !eps[0].Ended || len(eps[0].Records) != 1 {
		t.Fatalf("sealed recording: ended=%v records=%d", eps[0].Ended, len(eps[0].Records))
	}
	if eps[0].Snapshot != nil {
		t.Fatal("snapshot-less trailer decoded as a snapshot")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	valid := writeSenderRecording(t, senderSnapshot())
	// Index of the first frame header after the magic.
	hdr0 := len(fileMagic)

	cases := []struct {
		name string
		data func() []byte
	}{
		{"empty", func() []byte { return nil }},
		{"bad magic", func() []byte {
			d := append([]byte(nil), valid...)
			d[0] = 'X'
			return d
		}},
		{"older format version", func() []byte {
			d := append([]byte(nil), valid...)
			copy(d, "FOBREC01")
			return d
		}},
		{"bad frame marker", func() []byte {
			d := append([]byte(nil), valid...)
			d[hdr0] = 0x00
			return d
		}},
		{"unknown frame type", func() []byte {
			d := append([]byte(nil), valid...)
			d[hdr0+1] = 99
			return d
		}},
		{"truncated mid frame", func() []byte {
			return append([]byte(nil), valid[:len(valid)-5]...)
		}},
		{"truncated mid header", func() []byte {
			return append([]byte(nil), valid[:hdr0+4]...)
		}},
		{"records without start", func() []byte {
			// Drop the start frame: magic, then skip straight past it.
			d := append([]byte(nil), valid[:hdr0]...)
			return append(d, valid[hdr0+frameHeaderLen+startPayloadLen:]...)
		}},
		{"unknown record kind", func() []byte {
			d := append([]byte(nil), valid...)
			// First records frame follows the start frame; its first record's
			// kind byte is the top byte of w2 (offset 16 into the record).
			rec0 := hdr0 + frameHeaderLen + startPayloadLen + frameHeaderLen
			d[rec0+16] = 0xEE
			return d
		}},
		{"ragged records frame", func() []byte {
			d := append([]byte(nil), valid...)
			// Shrink the records frame's declared length by one byte and cut
			// the byte out, leaving a non-multiple-of-record-size payload.
			lenOff := hdr0 + frameHeaderLen + startPayloadLen + 8
			plen := int(rd32(d[lenOff:]))
			be32(d[lenOff:], uint32(plen-1))
			cut := lenOff + 4 + plen - 1
			return append(d[:cut], d[cut+1:]...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.data()))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read = %v, want ErrCorrupt", err)
			}
			if tc.name == "older format version" && !strings.Contains(err.Error(), "version 01") {
				t.Fatalf("Read = %v, want the refusal to name version 01", err)
			}
		})
	}
}

func TestAnalyzeSenderStream(t *testing.T) {
	data := writeSenderRecording(t, senderSnapshot())
	eps, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	a, err := Analyze(eps[0])
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.PacketsSent != 3 || a.Retransmits != 1 || a.BytesSent != 3072 {
		t.Errorf("send totals: sent=%d retx=%d bytes=%d", a.PacketsSent, a.Retransmits, a.BytesSent)
	}
	if a.AcksReceived != 2 || a.AckedPackets != 2 || a.KnownReceived != 2 {
		t.Errorf("ack totals: acks=%d acked=%d known=%d", a.AcksReceived, a.AckedPackets, a.KnownReceived)
	}
	if !a.FairnessChecked || a.ViolationCount != 0 {
		t.Errorf("fairness: checked=%v violations=%v", a.FairnessChecked, a.Violations)
	}
	if a.Outcome != metrics.OutcomeCompleted || a.Handshakes != 1 {
		t.Errorf("lifecycle: outcome=%v handshakes=%d", a.Outcome, a.Handshakes)
	}
	// Packet 0 acked after 1 send, packet 1 after 2.
	if len(a.RetransmitCounts) != 2 || a.RetransmitCounts[1] != 1 || a.RetransmitCounts[2] != 1 {
		t.Errorf("retransmit counts: %v", a.RetransmitCounts)
	}
	if a.AckDelay.Count != 2 || a.RTT.Count != 2 {
		t.Errorf("offline histograms: ackDelay=%d rtt=%d", a.AckDelay.Count, a.RTT.Count)
	}
	mismatches, checked := a.CrossCheck(eps[0].Snapshot)
	if !checked || len(mismatches) != 0 {
		t.Errorf("cross-check: checked=%v mismatches=%v", checked, mismatches)
	}
	// A doctored snapshot is caught.
	bad := *eps[0].Snapshot
	bad.Retransmits = 99
	if mismatches, _ := a.CrossCheck(&bad); len(mismatches) == 0 {
		t.Error("cross-check accepted a doctored snapshot")
	}
}

// synthetic builds an EndpointLog in memory for analyzer edge cases.
func synthetic(n int, recs []Record) *EndpointLog {
	at := time.Duration(0)
	for i := range recs {
		at += time.Microsecond
		recs[i].At = at
	}
	return &EndpointLog{
		Meta:    Meta{Role: obs.RoleSender, PacketsNeeded: n, PacketSize: 1024},
		Records: recs,
		Ended:   true,
	}
}

func TestAnalyzeRejectsInconsistentStreams(t *testing.T) {
	cases := []struct {
		name string
		ep   *EndpointLog
	}{
		{"seq beyond object", synthetic(2, []Record{
			{Kind: KindDataSend, Seq: 5, Aux: 1},
		})},
		{"attempt out of order", synthetic(2, []Record{
			{Kind: KindDataSend, Seq: 0, Aux: 2}, // first send claims attempt 2
		})},
		{"ack before send", synthetic(2, []Record{
			{Kind: KindAcked, Seq: 0, Aux: 1},
		})},
		{"double ack", synthetic(2, []Record{
			{Kind: KindDataSend, Seq: 0, Aux: 1},
			{Kind: KindAcked, Seq: 0, Aux: 1},
			{Kind: KindAcked, Seq: 0, Aux: 1},
		})},
		{"ack count mismatch", synthetic(2, []Record{
			{Kind: KindDataSend, Seq: 0, Aux: 1},
			{Kind: KindAcked, Seq: 0, Aux: 3},
		})},
		{"unknown phase", synthetic(2, []Record{
			{Kind: KindEvent, Seq: 999},
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Analyze(tc.ep); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Analyze = %v, want ErrCorrupt", err)
			}
		})
	}

	t.Run("reordered timestamps", func(t *testing.T) {
		ep := synthetic(2, []Record{
			{Kind: KindDataSend, Seq: 0, Aux: 1},
			{Kind: KindDataSend, Seq: 1, Aux: 1},
		})
		ep.Records[0].At, ep.Records[1].At = ep.Records[1].At, ep.Records[0].At
		if _, err := Analyze(ep); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Analyze = %v, want ErrCorrupt", err)
		}
	})
}

func TestAnalyzeFlagsFairnessViolations(t *testing.T) {
	// Packet 0 is retransmitted while packet 2 has never been sent: the
	// circular schedule would never do that.
	ep := synthetic(3, []Record{
		{Kind: KindDataSend, Seq: 0, Aux: 1},
		{Kind: KindDataSend, Seq: 1, Aux: 1},
		{Kind: KindDataSend, Seq: 0, Aux: 2},
	})
	a, err := Analyze(ep)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !a.FairnessChecked || a.ViolationCount == 0 {
		t.Fatalf("fairness breach not flagged: checked=%v violations=%v", a.FairnessChecked, a.Violations)
	}

	// The same stream under a non-circular schedule is not checked.
	ep2 := synthetic(3, []Record{
		{Kind: KindDataSend, Seq: 0, Aux: 1},
		{Kind: KindDataSend, Seq: 1, Aux: 1},
		{Kind: KindDataSend, Seq: 0, Aux: 2},
	})
	ep2.Meta.Schedule = 1
	a2, err := Analyze(ep2)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a2.FairnessChecked || a2.ViolationCount != 0 {
		t.Fatalf("non-circular stream was fairness-checked: %+v", a2.Violations)
	}
}

func TestAnalyzeDroppedRecordsRelaxChecks(t *testing.T) {
	ep := synthetic(2, []Record{
		{Kind: KindDataSend, Seq: 0, Aux: 2}, // would be corrupt in a full stream
	})
	ep.Dropped = 5
	a, err := Analyze(ep)
	if err != nil {
		t.Fatalf("Analyze on dropped stream: %v", err)
	}
	if a.FairnessChecked {
		t.Error("fairness checked despite dropped records")
	}
	if _, checked := a.CrossCheck(&metrics.TransferSnapshot{PacketsNeeded: 2}); checked {
		t.Error("cross-check ran despite dropped records")
	}
}

// TestCrossCheckKnownIsTheStatusMap: what a sender knows received is its
// status map — the packets a resume excused plus those acknowledged since —
// not the largest count an ack carried, which runs ahead of the map when the
// ack's bitmap window did not cover every packet it counted.
func TestCrossCheckKnownIsTheStatusMap(t *testing.T) {
	ep := synthetic(4, []Record{
		{Kind: KindEvent, Seq: uint32(obs.KindResume), Aux: 1},
		{Kind: KindDataSend, Seq: 1, Aux: 1},
		{Kind: KindDataSend, Seq: 2, Aux: 1},
		{Kind: KindAckRecv, Seq: 1, Aux: 3}, // counts both, shows packet 1 alone
		{Kind: KindAcked, Seq: 1, Aux: 1},
	})
	a, err := Analyze(ep)
	if err != nil {
		t.Fatal(err)
	}
	if a.Restored != 1 || a.KnownReceived != 2 {
		t.Fatalf("restored %d, known %d; want 1 and 2", a.Restored, a.KnownReceived)
	}
	snap := metrics.TransferSnapshot{PacketsNeeded: 4, Role: obs.RoleSender, PacketsRestored: 1,
		Counts: metrics.Counts{PacketsSent: 2, AcksReceived: 1, KnownReceived: 2}}
	if mismatches, checked := a.CrossCheck(&snap); !checked || len(mismatches) != 0 {
		t.Fatalf("cross-check: checked %v, mismatches %v", checked, mismatches)
	}
}

func TestSeriesForSender(t *testing.T) {
	data := writeSenderRecording(t, senderSnapshot())
	eps, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	series := SeriesFor(eps[0], 4)
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4", len(series))
	}
	names := map[string]bool{}
	var totalSent float64
	for _, s := range series {
		names[s.Name] = true
		if s.Len() != 4 {
			t.Errorf("series %s has %d samples, want 4", s.Name, s.Len())
		}
	}
	for _, want := range []string{"sent_pps", "retx_pps", "acked_pps", "goodput_mbps"} {
		if !names[want] {
			t.Errorf("missing series %q (have %v)", want, names)
		}
	}
	// Integrating the sent-rate series over its bins recovers the count.
	for _, s := range series {
		if s.Name != "sent_pps" {
			continue
		}
		width := 0.0
		if s.Len() > 1 {
			t1, _ := s.At(1)
			t0, _ := s.At(0)
			width = (t1 - t0).Seconds()
		}
		for i := 0; i < s.Len(); i++ {
			_, v := s.At(i)
			totalSent += v * width
		}
	}
	if totalSent < 2.9 || totalSent > 3.1 {
		t.Errorf("integrated sent_pps = %.2f packets, want 3", totalSent)
	}
}
