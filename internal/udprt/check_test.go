package udprt

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/wire"
)

// TestStripeDigestsOnlyUnderVerify: a striped plan announces its stripe
// digests — a second SHA-256 pass over the object — only when the caller
// demands verification, the one case in which a receiver reads them. The
// whole-object digest is announced either way.
func TestStripeDigestsOnlyUnderVerify(t *testing.T) {
	obj := makeObj(256 << 10)
	for _, tc := range []struct {
		name    string
		opts    Options
		digests int
	}{
		{"plain", Options{Streams: 4}, 0},
		{"verify", Options{Streams: 4, Verify: true}, 4},
		{"verify-no-dedup", Options{Streams: 4, Verify: true, NoDedup: true}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := newSenderPlan(obj, core.Config{PacketSize: 1024}, tc.opts.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			c, err := wire.DecodeCheck(plan.announcement(tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			if len(c.StripeDigests) != tc.digests {
				t.Fatalf("%d stripe digests announced, want %d", len(c.StripeDigests), tc.digests)
			}
			if c.Digest != core.ContentID(obj) {
				t.Fatal("the whole-object digest is not the object's")
			}
			for i, d := range c.StripeDigests {
				sd := plan.stripes[i]
				if d != core.ContentID(obj[sd.Offset:sd.Offset+sd.Length]) {
					t.Fatalf("stripe digest %d is not stripe %d's", i, i)
				}
			}
		})
	}
}

// TestStripedCorruptionFailsDigest is TestCorruptedPayloadFailsDigest for
// striped sends: flipped payload bits fail the transfer on both endpoints,
// by the whole-object digest when no stripe digest was announced and with
// them when Verify asked for them.
func TestStripedCorruptionFailsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	for _, verify := range []bool{false, true} {
		name := "plain"
		if verify {
			name = "verify"
		}
		t.Run(name, func(t *testing.T) {
			l, err := Listen("127.0.0.1:0", Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			proxy, err := faultnet.NewProxy(l.Addr(), faultnet.New(faultnet.Policy{
				Seed:          7,
				Corrupt:       0.05,
				CorruptOffset: wire.DataHeaderLen, // flip object bytes, not headers
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var rerr error
			done := make(chan struct{})
			go func() { defer close(done); _, _, rerr = l.Accept(ctx) }()
			_, serr := Send(ctx, proxy.Addr(), makeObj(1<<20), core.Config{},
				Options{Streams: 4, Verify: verify, Pace: 2 * time.Microsecond})
			<-done
			if st := proxy.Stats(); st.Corrupted == 0 {
				t.Fatalf("corruption never fired: %+v", st)
			}
			if !errors.Is(serr, ErrDigestMismatch) || !errors.Is(rerr, ErrDigestMismatch) {
				t.Fatalf("sender err = %v, receiver err = %v; want ErrDigestMismatch from both", serr, rerr)
			}
		})
	}
}

// TestCheckMissCopiesNothing: a CHECK that cannot be answered from the cache
// — it does not permit dedup, or names another size — is a miss decided
// before the cached object is copied out.
func TestCheckMissCopiesNothing(t *testing.T) {
	obj := makeObj(64 << 10)
	cache := newContentCache(Options{}.withDefaults())
	id := core.ContentID(obj)
	cache.add(id, obj, 1024)
	hit := recvPlan{checkDedup: true, checkDigest: id, objectSize: uint64(len(obj))}
	if got, ok := hit.dedupHit(cache); !ok || len(got) != len(obj) {
		t.Fatal("a dedup-permitting CHECK for a cached object missed")
	}
	verifyOnly, resized := hit, hit
	verifyOnly.checkDedup, verifyOnly.checkVerify = false, true
	resized.objectSize++
	for name, plan := range map[string]recvPlan{"verify-only": verifyOnly, "other-size": resized} {
		if _, ok := plan.dedupHit(cache); ok {
			t.Fatalf("%s CHECK answered from the cache", name)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { plan.dedupHit(cache) }); allocs > 0 {
			t.Fatalf("%s CHECK allocated %.0f times on its way to a miss: the object was copied", name, allocs)
		}
	}
	if _, ok := hit.dedupHit(nil); ok {
		t.Fatal("a nil cache answered a CHECK")
	}
}
