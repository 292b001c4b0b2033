package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero id")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip changed the id: %v vs %v", back, id)
	}
	if _, err := ParseTraceID("zz"); err == nil {
		t.Fatal("ParseTraceID accepted junk")
	}
	if _, err := ParseTraceID(s + "00"); err == nil {
		t.Fatal("ParseTraceID accepted a long id")
	}
	if (TraceID{}).IsZero() == false {
		t.Fatal("zero id not IsZero")
	}
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(&buf)
	id := NewTraceID()
	snd := l.Start(id, 7, RoleSender)
	rcv := l.Start(id, 7, RoleReceiver)
	snd.Event(KindDial, 0)
	snd.Event(KindHandshake, 1)
	snd.Event(KindRounds, 0)
	rcv.Event(KindHandshake, 1)
	rcv.Event(KindRounds, 0)
	rcv.Event(KindDrain, 0)
	rcv.Event(KindVerify, 1)
	rcv.Event(KindComplete, 0)
	snd.Event(KindDrain, 0)
	snd.Event(KindVerify, 1)
	snd.Event(KindComplete, 0)
	rcv.Finish()
	snd.Finish()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(evs) != 11 {
		t.Fatalf("got %d events, want 11", len(evs))
	}
	for _, ev := range evs {
		if ev.V != Version {
			t.Fatalf("event version %d, want %d", ev.V, Version)
		}
		if ev.Trace != id.String() {
			t.Fatalf("event trace %q, want %q", ev.Trace, id.String())
		}
		if ev.Transfer != 7 {
			t.Fatalf("event transfer %d, want 7", ev.Transfer)
		}
		if ev.Wall == 0 {
			t.Fatal("event missing wall timestamp")
		}
	}

	byTrace := Join(evs)
	tls := byTrace[id.String()]
	if len(tls) != 2 {
		t.Fatalf("join produced %d timelines, want 2", len(tls))
	}
	if tls[0].Role != RoleSender || tls[1].Role != RoleReceiver {
		t.Fatalf("timeline order %v/%v, want sender then receiver", tls[0].Role, tls[1].Role)
	}
	wantSnd := []Kind{KindDial, KindHandshake, KindRounds, KindDrain, KindVerify, KindComplete}
	if got := PhaseOrder(tls[0]); !kindsEqual(got, wantSnd) {
		t.Fatalf("sender phases %v, want %v", got, wantSnd)
	}
	wantRcv := []Kind{KindHandshake, KindRounds, KindDrain, KindVerify, KindComplete}
	if got := PhaseOrder(tls[1]); !kindsEqual(got, wantRcv) {
		t.Fatalf("receiver phases %v, want %v", got, wantRcv)
	}

	spans := Waterfall(tls[0])
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("span %d starts before its predecessor", i)
		}
		if spans[i-1].End != spans[i].Start {
			t.Fatalf("span %d does not abut its predecessor", i)
		}
	}
}

func kindsEqual(a, b []Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLogCreateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "span.jsonl")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	r := l.Start(NewTraceID(), 1, RoleSender)
	r.Event(KindHandshake, 1)
	r.Finish()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	evs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != KindHandshake {
		t.Fatalf("read back %+v, want one handshake", evs)
	}
}

func TestNilSafety(t *testing.T) {
	var l *Log
	r := l.Start(NewTraceID(), 1, RoleSender)
	if r != nil {
		t.Fatal("nil log returned a live recorder")
	}
	r.Event(KindHandshake, 0) // must not panic
	r.Finish()
	if r.Trace() != (TraceID{}) {
		t.Fatal("nil recorder has a trace id")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsAfterFinishDropped(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(&buf)
	r := l.Start(NewTraceID(), 1, RoleReceiver)
	r.Event(KindHandshake, 0)
	r.Finish()
	r.Event(KindComplete, 0) // late straggler: discarded
	go l.Close()             // concurrent Closes are the core's to serialize (spine.TestLogCloseConcurrent)
	l.Close()
	evs, _ := ReadEvents(&buf)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1 (post-Finish event must drop)", len(evs))
	}
}

func TestRingOverrunCounted(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(&buf)
	l.RingSize = 4
	r := l.Start(NewTraceID(), 1, RoleSender)
	// Flood far past the ring without giving the drainer a chance.
	for i := 0; i < 100; i++ {
		r.Event(KindRetry, uint64(i))
	}
	r.Finish()
	l.Close()
	evs, _ := ReadEvents(&buf)
	var lost uint64
	kept := 0
	for _, ev := range evs {
		if ev.Kind == KindLost {
			lost += ev.Arg
		} else {
			kept++
		}
	}
	if lost == 0 {
		t.Fatal("ring overrun produced no lost marker")
	}
	if uint64(kept)+lost < 100 {
		t.Fatalf("kept %d + lost %d < 100 emitted", kept, lost)
	}
}

func TestReaderTolerance(t *testing.T) {
	id := NewTraceID().String()
	lines := strings.Join([]string{
		`{"v":1,"trace":"` + id + `","transfer":3,"role":"sender","kind":"handshake","t_ns":10,"wall_ns":100}`,
		``,                      // blank
		`not json at all`,       // foreign line
		`{"v":1,"trace":"` + id, // torn by a crash mid-line
		`{"v":99,"trace":"` + id + `","transfer":3,"role":"sender","kind":"handshake","t_ns":20,"wall_ns":200}`,  // future revision
		`{"v":1,"trace":"` + id + `","transfer":3,"role":"starship","kind":"warp","t_ns":30,"wall_ns":300}`,      // future names
		`{"v":1,"trace":"` + id + `","transfer":3,"role":"daemon","kind":"task-queued","t_ns":35,"wall_ns":350}`, // retired names
		`{"v":1,"trace":"` + id + `","transfer":3,"role":"sender","kind":"complete","t_ns":40,"wall_ns":400}`,
	}, "\n")
	evs, err := ReadEvents(strings.NewReader(lines))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (skip blank, junk, torn, future-version)", len(evs))
	}
	if evs[1].Kind != KindUnknown || evs[1].Role != 0 {
		t.Fatalf("future names should decode to zero values, got %+v", evs[1])
	}
	if evs[2].Kind != KindUnknown || evs[2].Role != 0 {
		t.Fatalf("the retired task kinds and daemon role should decode to zero values, got %+v", evs[2])
	}
	if evs[0].Kind != KindHandshake || evs[3].Kind != KindComplete {
		t.Fatalf("known events misparsed: %+v", evs)
	}
}

func TestKindRoleJSONStable(t *testing.T) {
	for k := KindUnknown; k < kindCount; k++ {
		js, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
	for _, r := range []Role{RoleSender, RoleReceiver} {
		js, _ := json.Marshal(r)
		var back Role
		json.Unmarshal(js, &back)
		if back != r {
			t.Fatalf("role %v round-tripped to %v", r, back)
		}
	}
	if !KindComplete.Terminal() || !KindAbort.Terminal() || KindRounds.Terminal() {
		t.Fatal("Terminal misclassifies kinds")
	}
	if KindUnknown.Known() || !KindDial.Known() || !KindIdle.Known() || !KindLost.Known() || kindCount.Known() {
		t.Fatal("Known misclassifies kinds")
	}
}

// TestDrainTimeliness: events must reach the writer without waiting for
// Finish — the drainer's whole point is that a crash loses at most a
// few milliseconds.
func TestDrainTimeliness(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := NewLog(w)
	defer l.Close()
	r := l.Start(NewTraceID(), 1, RoleSender)
	r.Event(KindHandshake, 0)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond) // the core's sweep period
	}
	t.Fatal("event never drained to the writer")
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
