package udprt

import (
	"os"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/wire"
)

// TestOneEntryPerContent: the store holds at most one entry per content, in
// memory and on disk. A partial entry retained after a severed single-flow
// push is displaced once a striped push of the same content — which never
// claims it — completes and is kept whole; and a failed push of content held
// whole retains nothing beside the whole entry, even from a sender that asks
// not to be answered from it.
func TestOneEntryPerContent(t *testing.T) {
	const ps = 1024
	obj := makeObj(256 << 10)
	packets := core.NumPackets(int64(len(obj)), ps)
	// severed pushes half of obj under id from a raw peer that then aborts,
	// and waits for the endpoint to have ended the transfer.
	severed := func(ep *testEndpoint, id uint32, announcement []byte) {
		t.Helper()
		ep.recv(1)
		peer := dialRaw(t, ep.l.Addr(), announcement)
		peer.accepted()
		peer.data(id, obj, ps, 0, packets/2)
		ep.placed(id)
		writeAbort(peer.ctl, id, wire.AbortCancelled)
		ep.result(true)
		ep.aborted(id, wire.AbortCancelled)
	}
	// files is what the checkpoint directory holds.
	files := func(dir string) []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}

	t.Run("striped completion", func(t *testing.T) {
		dir := t.TempDir()
		ep := listen(t, byAccept, Options{Checkpoint: dir, Metrics: metrics.New()})
		severed(ep, 31, announceFor(31, obj, ps))
		if !ep.retains(obj) {
			t.Fatal("the severed push was not retained")
		}
		ep.recv(1)
		sst, err := Send(ep.ctx, ep.l.Addr(), obj, core.Config{Transfer: 32, PacketSize: ps}, Options{Streams: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r := ep.delivered(obj); sst.Restored != 0 || r.st.Restored != 0 {
			t.Fatalf("the striped push restored %d (receiver %d)", sst.Restored, r.st.Restored)
		}
		if ep.retains(obj) {
			t.Fatal("the partial entry outlived the whole one: the content is held twice")
		}
		if names := files(dir); len(names) != 1 {
			t.Fatalf("the directory holds %v, want the one file of the whole object", names)
		}
		if sst := ep.pushOK(obj, core.Config{Transfer: 33, PacketSize: ps}, Options{}).sst; !sst.Deduped {
			t.Fatal("the whole entry did not answer the next push")
		}
	})

	t.Run("failed push of content held whole", func(t *testing.T) {
		dir := t.TempDir()
		ep := listen(t, byAccept, Options{Checkpoint: dir, Metrics: metrics.New()})
		ep.pushOK(obj, core.Config{Transfer: 41, PacketSize: ps}, Options{})
		// The announcement of a sender under NoDedup: a CHECK without the
		// dedup flag, so the whole entry does not answer it.
		check := wire.AppendCheck(nil, &wire.Check{Transfer: 42, ObjectSize: uint64(len(obj)), PacketSize: ps,
			Digest: core.ContentID(obj)})
		severed(ep, 42, wire.AppendHello(check, &wire.Hello{Transfer: 42, ObjectSize: uint64(len(obj)), PacketSize: ps}))
		if ep.retains(obj) {
			t.Fatal("a partial entry was retained beside the whole one: the content is held twice")
		}
		if names := files(dir); len(names) != 1 {
			t.Fatalf("the directory holds %v, want the one file of the whole object", names)
		}
	})
}

// TestRetainedLoadKeepsNewestWithinBound: a checkpoint directory holding more
// partial entries than maxRetained — an earlier process's, or one run under a
// larger bound — loads the newest maxRetained by save time, oldest first,
// without writing them again, and removes the older files unread: start-up
// allocates one buffer per file it keeps, none for a file it sheds.
func TestRetainedLoadKeepsNewestWithinBound(t *testing.T) {
	const size, files, ps = 1 << 20, maxRetained + 4, 1024
	dir := t.TempDir()
	obj := makeObj(size)
	words := make([]uint64, (core.NumPackets(size, ps)+63)/64)
	words[0] = 1
	base := time.Now().Add(-time.Hour).Truncate(time.Second)
	saved := func(i int) time.Time { return base.Add(time.Duration(i) * time.Minute) }
	var ids [][32]byte
	for i := 0; i < files; i++ {
		id := numbered(obj, 3000-i) // directory order is the reverse of save order
		if err := checkpoint.SaveCache(dir, &checkpoint.State{ObjectSize: size, PacketSize: ps, Received: 1,
			Words: words, Object: obj, Content: id, HasContent: true}); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(checkpoint.CacheFile(dir, id), saved(i), saved(i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	before := totalAlloc()
	s := newStore(Options{Checkpoint: dir}.withDefaults())
	grew := totalAlloc() - before
	if !raceEnabled && grew > maxRetained*size+512<<10 {
		t.Errorf("loading %d files of 1 MiB, %d of them kept, allocated %d KiB: a file was read that was not kept",
			files, maxRetained, grew>>10)
	}
	for i, id := range ids {
		e := s.entryOf(id)
		info, err := os.Stat(checkpoint.CacheFile(dir, id))
		if kept := i >= files-maxRetained; (e != nil) != kept || (err == nil) != kept {
			t.Fatalf("file %d (0 = oldest): held=%v, file present=%v, want both %v", i, e != nil, err == nil, kept)
		} else if kept && (e.whole() || !info.ModTime().Equal(saved(i))) {
			t.Fatalf("file %d: loaded whole=%v, or written again on load", i, e.whole())
		}
	}
	// Eviction order survived: the next partial entry evicts the oldest one
	// loaded.
	s.hold(&entry{content: [32]byte{1}, packetSize: ps, obj: make([]byte, 1), words: []uint64{1}, received: 1})
	if s.entryOf(ids[files-maxRetained]) != nil || s.entryOf(ids[files-maxRetained+1]) == nil {
		t.Fatal("a partial entry held after the load evicted out of order")
	}
}
