package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"github.com/hpcnet/fobs/internal/wire"
)

// referenceID is the content identity written out serially and without any
// of content.go's helpers: SHA-256 over the tag, the big-endian length and
// the SHA-256 of each 1 MiB leaf in order.
func referenceID(data []byte) [32]byte {
	root := sha256.New()
	root.Write([]byte("fobs/content-id/2\x00"))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(data)))
	root.Write(n[:])
	for lo := 0; lo < len(data); lo += 1 << 20 {
		hi := lo + 1<<20
		if hi > len(data) {
			hi = len(data)
		}
		leaf := sha256.Sum256(data[lo:hi])
		root.Write(leaf[:])
	}
	var id [32]byte
	root.Sum(id[:0])
	return id
}

func patterned(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

// TestContentIDKnownAnswers pins the identity at the sizes where the leaf
// arithmetic can go wrong, against the serial reference and against
// committed digests — the identity is a protocol constant, persisted in
// cache file names, so it must not drift.
func TestContentIDKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		want string
	}{
		{"one byte", 1, "c1f5e64388af79a877daf5ffd4c299f9306f66e4ee8d4bef10b0e7b856a1fca5"},
		{"leaf minus one", LeafSize - 1, "661f705e4a730c3a826fb5f6db63545b78828d8a315127a056d100e2d48a8388"},
		{"one leaf", LeafSize, "af06a58c912c76c8ad57722dd4a08cd80ca622d82ca7206fad5edf661eeeaf96"},
		{"leaf plus one", LeafSize + 1, "1edceba5a494bdeae5cee2c814e6321b3253f73faa1e153af2048ad3095b7960"},
		{"three and a half leaves", 3*LeafSize + LeafSize/2, "e104027ee556d6f7e021559fbf3c812a1007369af141bd29650ed3b3615d92ae"},
	} {
		data := patterned(tc.size)
		got, ref := ContentID(data), referenceID(data)
		if got != ref {
			t.Errorf("%s: ContentID %x, serial reference %x", tc.name, got, ref)
		}
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("%s: ContentID %x, committed answer %s", tc.name, got, tc.want)
		}
	}
	if got, ref := ContentID(nil), referenceID(nil); got != ref {
		t.Errorf("empty object: ContentID %x, serial reference %x", got, ref)
	}
}

// TestContentIDParallelEqualsSerial: the identity does not depend on how
// many goroutines hashed the leaves.
func TestContentIDParallelEqualsSerial(t *testing.T) {
	data := patterned(5*LeafSize + 12345)
	want := referenceID(data)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 3; i++ {
			if got := ContentID(data); got != want {
				t.Fatalf("GOMAXPROCS=%d: ContentID %x, want %x", procs, got, want)
			}
		}
	}
}

// TestContentIDSeparatesObjects: length, every leaf's content and the order
// of the leaves all reach the identity.
func TestContentIDSeparatesObjects(t *testing.T) {
	base := patterned(3 * LeafSize)
	ids := map[[32]byte]string{ContentID(base): "base"}
	add := func(name string, data []byte) {
		t.Helper()
		id := ContentID(data)
		if prev, dup := ids[id]; dup {
			t.Errorf("%s has the same identity as %s", name, prev)
		}
		ids[id] = name
	}
	add("one byte shorter", base[:len(base)-1])
	add("one leaf shorter", base[:2*LeafSize])
	add("zero-extended by a byte", append(append([]byte(nil), base...), 0))
	for leaf := 0; leaf < 3; leaf++ {
		flipped := append([]byte(nil), base...)
		flipped[leaf*LeafSize+LeafSize/2] ^= 1
		add("a bit flipped in leaf "+string(rune('0'+leaf)), flipped)
	}
	swapped := append([]byte(nil), base...)
	copy(swapped[:LeafSize], base[LeafSize:2*LeafSize])
	copy(swapped[LeafSize:2*LeafSize], base[:LeafSize])
	add("leaves 0 and 1 swapped", swapped)
}

// TestContentIDLevelsDoNotCollide: the 64 bytes that are a two-leaf object's
// root input are themselves a legal one-leaf object; the two must not share
// an identity (nor may a root ever equal a bare leaf digest).
func TestContentIDLevelsDoNotCollide(t *testing.T) {
	two := patterned(2 * LeafSize)
	l0, l1 := LeafID(two, 0), LeafID(two, 1)
	digests := append(append([]byte(nil), l0[:]...), l1[:]...)
	if ContentID(digests) == ContentID(two) {
		t.Fatal("a one-leaf object made of two leaf digests collides with the two-leaf object")
	}
	one := patterned(1000)
	if ContentID(one) == sha256.Sum256(one) {
		t.Fatal("a one-leaf object's identity is its bare SHA-256: the root level was skipped")
	}
}

// TestDuplicateNeverRewritesPlacedBytes pins the invariant the receive-side
// leaf hasher rests on: once a packet is placed its bytes never change, so a
// complete leaf may be read while the transfer is still running. A duplicate
// — even one whose payload differs from the first copy — returns before the
// copy.
func TestDuplicateNeverRewritesPlacedBytes(t *testing.T) {
	const ps = 1024
	obj := patterned(8 * ps)
	rcv := NewReceiver(int64(len(obj)), Config{PacketSize: ps})
	first := wire.Data{Seq: 3, Total: 8, Payload: obj[3*ps : 4*ps]}
	if _, err := rcv.HandleData(first); err != nil {
		t.Fatal(err)
	}
	forged := first
	forged.Payload = bytes.Repeat([]byte{0xAA}, ps)
	if _, err := rcv.HandleData(forged); err != nil {
		t.Fatal(err)
	}
	if st := rcv.Stats(); st.Duplicates != 1 || st.Received != 1 {
		t.Fatalf("forged duplicate classified as %+v", st)
	}
	if !bytes.Equal(rcv.Object()[3*ps:4*ps], obj[3*ps:4*ps]) {
		t.Fatal("a duplicate overwrote bytes that were already placed")
	}
	// The same holds for packets a resumed receiver was seeded with.
	buf := append([]byte(nil), obj...)
	resumed := NewReceiverInto(buf, Config{PacketSize: ps})
	if _, err := resumed.Restore([]uint64{1 << 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.HandleData(forged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, obj) {
		t.Fatal("a duplicate of a restored packet overwrote the retained bytes")
	}
}
