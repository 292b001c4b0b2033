package spine

import (
	"sync"
	"testing"
)

// slots decodes a drained buffer back into its word triples.
func slots(t *testing.T, buf []byte) [][3]uint64 {
	t.Helper()
	if len(buf)%SlotBytes != 0 {
		t.Fatalf("drained %d bytes, not a whole number of slots", len(buf))
	}
	var out [][3]uint64
	for ; len(buf) > 0; buf = buf[SlotBytes:] {
		w0, w1, w2 := Words(buf)
		out = append(out, [3]uint64{w0, w1, w2})
	}
	return out
}

// push publishes claims from..to-1, each slot spelling its claim three ways.
func push(r *Ring, from, to int) {
	for i := from; i < to; i++ {
		r.Push(uint64(i), uint64(i)<<32|7, ^uint64(i))
	}
}

// wantRun requires got to be exactly the claims first, first+1, ... intact.
func wantRun(t *testing.T, got [][3]uint64, first, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("read %d slots, want %d", len(got), n)
	}
	for i, s := range got {
		c := uint64(first + i)
		if s != [3]uint64{c, c<<32 | 7, ^c} {
			t.Fatalf("slot %d = %x, want claim %d (claim order, words intact)", i, s, c)
		}
	}
}

func TestRingSequential(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size        int
		pushes      int
		wantLen     int // ring capacity after rounding
		wantDropped uint64
	}{
		{"round trip below capacity", 128, 100, 128, 0},
		{"exactly full", 64, 64, 64, 0},
		{"size rounds up to a power of two", 100, 128, 128, 0},
		{"overrun by a partial lap", 64, 104, 64, 40},
		{"overrun twice over", 64, 200, 64, 136},
		{"smallest ring", 1, 3, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(tc.size)
			if r.Len() != tc.wantLen {
				t.Fatalf("Len = %d, want %d", r.Len(), tc.wantLen)
			}
			push(r, 0, tc.pushes)
			kept := tc.pushes - int(tc.wantDropped)

			// A snapshot sees the survivors oldest first and consumes nothing.
			for pass := 0; pass < 2; pass++ {
				wantRun(t, slots(t, r.Snapshot(nil)), tc.pushes-kept, kept)
			}

			var cursor uint64
			buf, dropped := r.Drain(&cursor, nil)
			if dropped != tc.wantDropped {
				t.Fatalf("dropped = %d, want exactly %d", dropped, tc.wantDropped)
			}
			wantRun(t, slots(t, buf), tc.pushes-kept, kept)

			// Exactly once: nothing new, nothing again; then only the new.
			if buf, dropped = r.Drain(&cursor, buf[:0]); len(buf) != 0 || dropped != 0 {
				t.Fatalf("second drain: %d bytes, %d dropped, want nothing", len(buf), dropped)
			}
			r.Push(uint64(tc.pushes), uint64(tc.pushes)<<32|7, ^uint64(tc.pushes))
			buf, dropped = r.Drain(&cursor, buf[:0])
			if dropped != 0 {
				t.Fatalf("third drain dropped %d", dropped)
			}
			wantRun(t, slots(t, buf), tc.pushes, 1)
		})
	}
}

// TestRingSlotBeingRewritten plants the state a reader meets when a writer
// has claimed a slot and not yet published it: the snapshot skips that slot,
// the drain stops in front of it and takes it up once it is published, and a
// writer that moved in a lap later costs the drain exactly that one slot.
func TestRingSlotBeingRewritten(t *testing.T) {
	r := NewRing(8)
	push(r, 0, 6)
	// Claim 3's writer is between its bracket stores.
	r.slots[3].seq.Store(2*3 + 1)
	got := slots(t, r.Snapshot(nil))
	if len(got) != 5 || got[2][0] != 2 || got[3][0] != 4 {
		t.Fatalf("snapshot = %v, want claims 0,1,2,4,5", got)
	}
	var cursor uint64
	buf, dropped := r.Drain(&cursor, nil)
	wantRun(t, slots(t, buf), 0, 3)
	if dropped != 0 || cursor != 3 {
		t.Fatalf("drain stopped at cursor %d with %d dropped, want 3 and 0", cursor, dropped)
	}
	r.slots[3].seq.Store(2*3 + 2) // published
	buf, dropped = r.Drain(&cursor, buf[:0])
	wantRun(t, slots(t, buf), 3, 3)
	if dropped != 0 {
		t.Fatalf("dropped = %d after the slot was published", dropped)
	}
	// Claim 6 is published normally; then the writer of claim 14 (same slot,
	// one lap on) moves in before the drain gets there.
	push(r, 6, 8)
	r.slots[6].seq.Store(2*14 + 1)
	buf, dropped = r.Drain(&cursor, buf[:0])
	wantRun(t, slots(t, buf), 7, 1)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want the one overwritten slot", dropped)
	}
}

// TestRingConcurrent races eight producers against one drainer and against
// snapshot readers (run it under -race): every slot read is intact and from
// one generation, each producer's slots drain in the order it pushed them,
// and drained plus dropped accounts for every push exactly.
func TestRingConcurrent(t *testing.T) {
	const writers, per = 8, 2000
	r := NewRing(64)
	intact := func(s [3]uint64) bool { return s[0] < writers && s[1] < per && s[2] == s[0]<<32|s[1] }
	var producers, readers sync.WaitGroup
	stop := make(chan struct{})
	defer readers.Wait()
	defer close(stop)
	for w := 0; w < writers; w++ {
		producers.Add(1)
		go func(w uint64) {
			defer producers.Done()
			for i := uint64(0); i < per; i++ {
				r.Push(w, i, w<<32|i)
			}
		}(uint64(w))
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.Snapshot(buf[:0])
				if len(buf) > r.Len()*SlotBytes {
					t.Errorf("snapshot holds %d slots, ring has %d", len(buf)/SlotBytes, r.Len())
					return
				}
				for b := buf; len(b) >= SlotBytes; b = b[SlotBytes:] {
					w0, w1, w2 := Words(b)
					if !intact([3]uint64{w0, w1, w2}) {
						t.Errorf("snapshot read a torn slot: %x %x %x", w0, w1, w2)
						return
					}
				}
			}
		}()
	}
	produced := make(chan struct{})
	go func() { producers.Wait(); close(produced) }()

	var cursor, got, dropped uint64
	next := make([]uint64, writers) // per producer, the least index not yet seen
	buf := make([]byte, 0, r.Len()*SlotBytes)
	drain := func() {
		var d uint64
		buf, d = r.Drain(&cursor, buf[:0])
		dropped += d
		for _, s := range slots(t, buf) {
			if !intact(s) {
				t.Fatalf("drain read a torn slot: %x", s)
			}
			if s[1] < next[s[0]] {
				t.Fatalf("producer %d: index %d drained after %d", s[0], s[1], next[s[0]]-1)
			}
			next[s[0]] = s[1] + 1
			got++
		}
	}
	for done := false; !done; {
		select {
		case <-produced:
			done = true
		default:
		}
		drain()
	}
	drain()
	if got+dropped != writers*per {
		t.Fatalf("drained %d + dropped %d != %d pushed", got, dropped, writers*per)
	}
}
