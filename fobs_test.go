package fobs_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/hpcnet/fobs"
)

func TestFacadeLoopbackTransfer(t *testing.T) {
	obj := make([]byte, 512<<10)
	rand.New(rand.NewSource(1)).Read(obj)

	l, err := fobs.Listen("127.0.0.1:0", fobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type rcv struct {
		data []byte
		err  error
	}
	done := make(chan rcv, 1)
	go func() {
		data, _, err := l.Accept(ctx)
		done <- rcv{data, err}
	}()

	sst, err := fobs.Send(ctx, l.Addr(), obj, fobs.Config{PacketSize: 1024}, fobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, obj) {
		t.Fatal("object corrupted over the public API")
	}
	if sst.PacketsNeeded != 512 {
		t.Fatalf("PacketsNeeded = %d, want 512", sst.PacketsNeeded)
	}
}

func TestFacadeSimulate(t *testing.T) {
	res := fobs.Simulate(fobs.ShortHaul(), 1, 2<<20, fobs.Config{})
	if !res.Completed {
		t.Fatal("simulated transfer incomplete")
	}
	if res.Protocol != "fobs" {
		t.Fatalf("protocol = %q", res.Protocol)
	}
}

func TestFacadeSimulateTCP(t *testing.T) {
	lwe := fobs.SimulateTCP(fobs.LongHaul(), 1, 2<<20, true)
	plain := fobs.SimulateTCP(fobs.LongHaul(), 1, 2<<20, false)
	if !lwe.Completed || !plain.Completed {
		t.Fatal("TCP runs incomplete")
	}
	if lwe.Goodput() <= plain.Goodput() {
		t.Fatal("LWE not faster than plain TCP on the long haul")
	}
}

func TestFacadeHeadlineClaim(t *testing.T) {
	// The abstract's claim, end to end through the public API: FOBS gets
	// on the order of 90% of the long-haul pipe, well above optimized TCP.
	obj := int64(8 << 20)
	f := fobs.Simulate(fobs.LongHaul(), 1, obj, fobs.Config{})
	tcp := fobs.SimulateTCP(fobs.LongHaul(), 1, obj, true)
	if u := f.Utilization(fobs.LongHaul().MaxBandwidth); u < 0.6 {
		t.Fatalf("FOBS long-haul utilization %.2f, want > 0.6", u)
	}
	if f.Goodput() <= tcp.Goodput() {
		t.Fatal("FOBS not faster than TCP+LWE on the long haul")
	}
}

func TestFacadeDefaults(t *testing.T) {
	if fobs.ObjectSize != 40<<20 {
		t.Fatalf("ObjectSize = %d", fobs.ObjectSize)
	}
	if fobs.PacketSize != 1024 {
		t.Fatalf("PacketSize = %d", fobs.PacketSize)
	}
	if fobs.DefaultBatch != 2 {
		t.Fatalf("DefaultBatch = %d", fobs.DefaultBatch)
	}
	if len(fobs.DefaultAckFrequencies) == 0 || len(fobs.DefaultPacketSizes) == 0 {
		t.Fatal("default sweep axes empty")
	}
}
