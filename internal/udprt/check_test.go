package udprt

import (
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
		ep := listen(t, byAccept, Options{})
		proxy := ep.front(faultnet.New(faultnet.Policy{
			Seed:          7,
			Corrupt:       0.05,
			CorruptOffset: wire.DataHeaderLen, // flip object bytes, not headers
		}))
		p := ep.push(makeObj(1<<20), core.Config{}, Options{Streams: 4, Pace: 2 * time.Microsecond})
		if st := proxy.Stats(); st.Corrupted == 0 {
			t.Fatalf("corruption never fired: %+v", st)
		}
		if !errors.Is(p.serr, ErrDigestMismatch) || !errors.Is(p.err, ErrDigestMismatch) {
			t.Fatalf("sender err = %v, receiver err = %v; want ErrDigestMismatch from both", p.serr, p.err)
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
