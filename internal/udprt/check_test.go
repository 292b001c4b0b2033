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

// TestStripedCorruptionFailsDigest is TestCorruptedPayloadFailsDigest for
// striped sends: flipped payload bits in any stripe fail the transfer on
// both endpoints, by the whole object's content identity alone.
func TestStripedCorruptionFailsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	t.Run("plain", func(t *testing.T) {
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
			Options{Streams: 4, Pace: 2 * time.Microsecond})
		<-done
		if st := proxy.Stats(); st.Corrupted == 0 {
			t.Fatalf("corruption never fired: %+v", st)
		}
		if !errors.Is(serr, ErrDigestMismatch) || !errors.Is(rerr, ErrDigestMismatch) {
			t.Fatalf("sender err = %v, receiver err = %v; want ErrDigestMismatch from both", serr, rerr)
		}
	})
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
	noDedup, resized := hit, hit
	noDedup.checkDedup = false
	resized.objectSize++
	for name, plan := range map[string]recvPlan{"no-dedup": noDedup, "other-size": resized} {
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
