package core

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// LeafSize is the granule of the content identity: an object is cut into
// consecutive leaves of this many bytes (the last one may be short) and
// each is hashed on its own. It is a protocol constant — both ends must cut
// the same bytes the same way — and is deliberately independent of packet
// size and stripe geometry, so the same object has the same identity
// however it travels.
const LeafSize = 1 << 20

// rootTag domain-separates the root hash from every leaf hash: no byte
// string is both a leaf and a root input.
const rootTag = "fobs/content-id/2\x00"

// NumLeaves returns how many leaves an object of size bytes is cut into.
func NumLeaves(size int) int {
	n := size / LeafSize
	if size%LeafSize != 0 {
		n++
	}
	return n
}

// LeafID returns the SHA-256 of leaf i of data.
func LeafID(data []byte, i int) [32]byte {
	leaf := data[i*LeafSize:]
	return sha256.Sum256(leaf[:min(LeafSize, len(leaf))])
}

// RootID folds an object's length and its leaf digests, in order, into the
// content identity. Every object takes both levels — a one-leaf object's
// identity is the root over that single digest, never the digest itself —
// and the length is part of the input, so objects of different sizes or
// leaf counts cannot share a root input.
func RootID(size int, leaves [][32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(rootTag))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(size))
	h.Write(n[:])
	for i := range leaves {
		h.Write(leaves[i][:])
	}
	var id [32]byte
	h.Sum(id[:0])
	return id
}

// ContentID returns the object's content identity: a two-level SHA-256,
// RootID over the LeafID of every LeafSize-byte leaf. Unlike the per-packet
// CRC-32C (Config.Checksum), a content identity names the bytes strongly enough
// to deduplicate by — two objects with equal ContentIDs are the same object
// for transfer-avoidance purposes. Leaves are what let the identity be
// computed in pieces: here on up to GOMAXPROCS goroutines at once, and by a
// receiver leaf by leaf as packets land, in any order. It is computed once
// per object at load time, never on the per-packet path.
func ContentID(data []byte) [32]byte {
	n := NumLeaves(len(data))
	leaves := make([][32]byte, n)
	var next atomic.Int64
	hash := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			leaves[i] = LeafID(data, i)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hash()
		}()
	}
	hash()
	wg.Wait()
	return RootID(len(data), leaves)
}
