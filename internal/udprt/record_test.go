package udprt

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
)

// recordedTransfer runs one transfer through a seeded fault proxy with both
// metrics and flight recording live, returning the parsed recording and the
// final registry snapshot.
func recordedTransfer(t *testing.T, obj []byte, faults *faultnet.Faults) ([]*flight.EndpointLog, metrics.Snapshot) {
	t.Helper()
	reg := metrics.New()
	path := filepath.Join(t.TempDir(), "transfer.fobrec")
	rec, err := flight.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Pace: 2 * time.Microsecond, Metrics: reg, Record: rec}
	l, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), faults)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var got []byte
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, _, rerr = l.Accept(ctx)
	}()
	_, serr := Send(ctx, proxy.Addr(), obj, core.Config{}, opts)
	<-done
	if serr != nil || rerr != nil {
		t.Fatalf("send: %v, receive: %v", serr, rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close recording: %v", err)
	}
	eps, err := flight.ReadFile(path)
	if err != nil {
		t.Fatalf("read recording: %v", err)
	}
	return eps, reg.Snapshot()
}

// TestFlightRecorderEquivalence is the recorder's end-to-end gate: a lossy
// seeded-faultnet transfer is recorded, the recording replayed offline, and
// the analyzer's reconstructed totals must match the live metrics snapshot
// embedded in the trailer exactly — same events, counted two independent
// ways. The sender stream must additionally satisfy the circular-buffer
// fairness invariant with zero violations.
func TestFlightRecorderEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	obj := makeObj(768<<10 + 7)
	faults := faultnet.New(faultnet.Policy{Seed: 7, Drop: 0.10, Dup: 0.03})
	eps, snap := recordedTransfer(t, obj, faults)
	if len(eps) != 2 {
		t.Fatalf("recording has %d endpoints, want sender and receiver", len(eps))
	}
	for _, ep := range eps {
		a, err := flight.Analyze(ep)
		if err != nil {
			t.Fatalf("%v analyze: %v", ep.Meta.Role, err)
		}
		if a.Dropped != 0 {
			t.Fatalf("%v recording dropped %d records; equivalence needs a full capture", ep.Meta.Role, a.Dropped)
		}
		if !ep.Ended {
			t.Fatalf("%v recording has no trailer", ep.Meta.Role)
		}
		if ep.Snapshot == nil {
			t.Fatalf("%v trailer carries no metrics snapshot", ep.Meta.Role)
		}
		mismatches, checked := a.CrossCheck(ep.Snapshot)
		if !checked {
			t.Fatalf("%v cross-check did not run", ep.Meta.Role)
		}
		if len(mismatches) != 0 {
			t.Fatalf("%v records disagree with live metrics:\n  %v", ep.Meta.Role, mismatches)
		}
		// The trailer snapshot is the same terminal state the registry
		// archived, so the analyzer transitively agrees with the registry.
		live, ok := snap.Find(ep.Meta.Transfer, ep.Meta.Role)
		if !ok {
			t.Fatalf("%v missing from registry snapshot", ep.Meta.Role)
		}
		if live.PacketsSent != ep.Snapshot.PacketsSent ||
			live.DataDemuxed != ep.Snapshot.DataDemuxed ||
			live.Retransmits != ep.Snapshot.Retransmits ||
			live.Outcome != ep.Snapshot.Outcome {
			t.Fatalf("%v trailer snapshot diverges from registry: %+v vs %+v",
				ep.Meta.Role, ep.Snapshot, live)
		}

		if ep.Meta.Role == obs.RoleSender {
			if !a.FairnessChecked {
				t.Fatal("fairness invariant was not checked on the sender stream")
			}
			if a.ViolationCount != 0 {
				t.Fatalf("fairness violations on a circular-schedule run:\n  %v", a.Violations)
			}
			if a.Retransmits == 0 {
				t.Fatal("lossy run recorded no retransmissions; the fault proxy did nothing")
			}
			if a.AckDelay.Count == 0 || a.RTT.Count == 0 {
				t.Fatal("offline latency histograms are empty")
			}
			if a.Outcome != metrics.OutcomeCompleted {
				t.Fatalf("sender outcome = %v", a.Outcome)
			}
		} else {
			if a.Fresh+a.Duplicates+a.Rejected != a.DataDemuxed {
				t.Fatalf("receiver classification broken: %+v", a)
			}
			if a.BytesReceived != int64(len(obj)) {
				t.Fatalf("receiver goodput bytes = %d, want %d", a.BytesReceived, len(obj))
			}
		}
		// Reconstructed series integrate back to sensible totals.
		series := flight.SeriesFor(ep, 16)
		if len(series) != 4 {
			t.Fatalf("%v: %d series, want 4", ep.Meta.Role, len(series))
		}
	}
}

// TestFlightRecorderRingOverrun forces the ring to overrun with a tiny
// capacity and checks the loss is declared, not hidden: the trailer carries
// a nonzero drop count, the reader surfaces it, and the analyzer degrades
// to unverified totals instead of claiming a checked invariant.
func TestFlightRecorderRingOverrun(t *testing.T) {
	var buf bytes.Buffer
	log := flight.NewLog(&buf)
	log.RingSize = 64
	fr := log.StartSender(1, 4096, 4096*1024, 1024, 0)
	// Push far more records than the ring holds, faster than the 5ms
	// drainer can keep up with.
	for seq := 0; seq < 4096; seq++ {
		fr.DataSent(uint32(seq), 1024, seq%32)
	}
	fr.Finish(metrics.TransferSnapshot{})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	eps, err := flight.Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(eps) != 1 {
		t.Fatalf("%d endpoints", len(eps))
	}
	ep := eps[0]
	if ep.Dropped == 0 {
		t.Fatal("overrun recording claims zero drops")
	}
	if int(ep.Dropped)+len(ep.Records) != 4096 {
		t.Fatalf("dropped %d + kept %d != pushed 4096", ep.Dropped, len(ep.Records))
	}
	a, err := flight.Analyze(ep)
	if err != nil {
		t.Fatalf("analyze partial recording: %v", err)
	}
	if a.FairnessChecked {
		t.Fatal("fairness claimed checked on a partial recording")
	}
}
