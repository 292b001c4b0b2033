package fobs_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/hpcnet/fobs"
)

// TestWasteSmoke is `make waste-smoke`: the paper's headline metric — packets
// sent beyond the object's own, "approximately 3%" — read off real loopback
// sockets through the public API, with the receiver's own count of what its
// socket buffer dropped beside it. One discarded push warms the endpoint,
// three are measured. It is a reading on a shared machine, not a
// measurement, so it runs only when asked for (FOBS_WASTE_SMOKE=1) and CI
// runs it non-gating; the bounds are loose enough that tripping one means
// the sender has stopped being held to the receiver's window, not that the
// host was busy.
func TestWasteSmoke(t *testing.T) {
	if os.Getenv("FOBS_WASTE_SMOKE") == "" {
		t.Skip("set FOBS_WASTE_SMOKE=1 (make waste-smoke) to run")
	}
	for _, c := range []struct {
		name         string
		size, packet int
		maxWaste     float64
	}{
		{"16MiB at 1KiB", 16 << 20, 1 << 10, 0.25},
		{"32MiB at 32KiB", 32 << 20, 32 << 10, 0.10},
	} {
		t.Run(c.name, func(t *testing.T) {
			var rio fobs.IOCounters
			l, err := fobs.Listen("127.0.0.1:0", fobs.Options{IOCounters: &rio})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if got, want := l.ReadBuffer(); got < want {
				t.Logf("the kernel granted %d of the %d-byte receive buffer asked for (net.core.rmem_max)", got, want)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			obj := make([]byte, c.size)
			rand.New(rand.NewSource(1)).Read(obj)
			sent, needed, dropped := 0, 0, 0
			for i := 0; i < 4; i++ {
				obj[0] = byte(i) // fresh content: a dedup hit moves nothing
				accepted := make(chan error, 1)
				go func() {
					got, _, err := l.Accept(ctx)
					if err == nil && !bytes.Equal(got, obj) {
						t.Error("object corrupted")
					}
					accepted <- err
				}()
				st, err := fobs.Send(ctx, l.Addr(), obj, fobs.Config{PacketSize: c.packet, Transfer: uint32(i + 1)}, fobs.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := <-accepted; err != nil {
					t.Fatal(err)
				}
				t.Logf("push %d: %d packets for %d (waste %.1f%%), %d dropped at the receiver's socket",
					i, st.PacketsSent, st.PacketsNeeded, 100*st.Waste(), rio.RecvOverflow)
				if i > 0 {
					sent, needed, dropped = sent+st.PacketsSent, needed+st.PacketsNeeded, dropped+rio.RecvOverflow
				}
			}
			if waste := float64(sent-needed) / float64(needed); waste > c.maxWaste {
				t.Errorf("waste %.1f%%, want at most %.0f%%", 100*waste, 100*c.maxWaste)
			}
			if dropped != 0 {
				t.Errorf("the receiver's socket dropped %d: the sender overran the window it was told", dropped)
			}
		})
	}
}
