// Fuzz target for the span-log reader: whatever bytes land in a
// .jsonl file — torn tails, binary garbage, future revisions — the
// reader must never panic, and everything it accepts must survive a
// re-marshal/re-read cycle. On top of the in-code seeds, testdata/fuzz/
// holds a committed corpus of representative logs.
package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func FuzzReadEvents(f *testing.F) {
	// A genuine log produced by the writer itself.
	var buf bytes.Buffer
	l := NewLog(&buf)
	id := NewTraceID()
	r := l.Start(id, 42, RoleSender)
	r.Event(KindDial, 0)
	r.Event(KindHandshake, 2)
	r.Event(KindRounds, 0)
	r.Event(KindDrain, 0)
	r.Event(KindVerify, 1)
	r.Event(KindComplete, 0)
	r.Finish()
	l.Close()
	f.Add(buf.Bytes())
	f.Add([]byte(`{"v":1,"trace":"00112233445566778899aabbccddeeff","transfer":1,"role":"receiver","kind":"abort","t_ns":5,"wall_ns":50,"arg":3}`))
	f.Add([]byte(`{"v":2,"kind":"from-the-future"}` + "\n" + `{"v":1,"transfer":9,"role":"daemon","kind":"task-done","t_ns":1,"wall_ns":1}`))
	f.Add([]byte("\n\nnot json\n{\"v\":1"))
	f.Add([]byte{})
	f.Add([]byte{0xFB, 0x00, 0xFF})
	// Names earlier builds declared and this one retired: the fobsd task
	// kinds and the daemon role read as KindUnknown and the zero role.
	f.Add([]byte(`{"v":1,"trace":"00112233445566778899aabbccddeeff","transfer":4,"role":"daemon","kind":"task-queued","t_ns":7,"wall_ns":70,"arg":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		evs, err := ReadEvents(bytes.NewReader(b))
		if err != nil {
			return // only underlying read errors, impossible here
		}
		for _, ev := range evs {
			if ev.V <= 0 || ev.V > Version {
				t.Fatalf("reader accepted version %d", ev.V)
			}
		}
		// Accepted events survive a re-marshal/re-read cycle.
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				t.Fatalf("re-marshal failed: %v", err)
			}
		}
		back, err := ReadEvents(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("re-read kept %d of %d events", len(back), len(evs))
		}
		for i := range back {
			if back[i].Kind != evs[i].Kind || back[i].At != evs[i].At || back[i].Transfer != evs[i].Transfer {
				t.Fatalf("re-read changed event %d: %+v vs %+v", i, back[i], evs[i])
			}
		}
		// The join never panics on whatever grouping the input implies.
		Join(evs)
	})
}
