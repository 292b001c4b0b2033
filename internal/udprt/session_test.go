package udprt

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

func TestSessionStreamsObjectsInOrder(t *testing.T) {
	ep := listen(t, bySession, Options{})
	const frames = 5
	objs := make([][]byte, frames)
	rng := rand.New(rand.NewSource(3))
	for i := range objs {
		objs[i] = make([]byte, 128<<10+i*7777)
		rng.Read(objs[i])
	}
	ep.recv(frames)
	sess, err := OpenSession(ep.ctx, ep.l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, obj := range objs {
		if _, err := sess.Send(ep.ctx, obj, core.Config{AckFrequency: 32}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	for _, obj := range objs {
		ep.delivered(obj)
	}
}

func TestSessionSendEmptyObject(t *testing.T) {
	ep := listen(t, bySession, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := OpenSession(ctx, ep.l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Send(ctx, nil, core.Config{}); err == nil {
		t.Fatal("empty object accepted")
	}
}

func TestSessionNextAfterSenderCloses(t *testing.T) {
	ep := listen(t, bySession, Options{})
	ep.recv(1) // the sender closes without a HELLO
	sess, err := OpenSession(ep.ctx, ep.l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if r, _ := ep.result(true); r.err == nil {
		t.Fatal("Next returned nil error after the sender closed the session")
	}
}

func TestOpenSessionNoListener(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := OpenSession(ctx, "127.0.0.1:1", Options{}); err == nil {
		t.Fatal("OpenSession to a dead port succeeded")
	}
}

// TestSessionRefusedHaveAbortsReceiver: a session sender that refuses the
// receiver's HAVE says so with ABORT(bad-hello), as Send does, and the
// session receiver — watching its control connection like every endpoint —
// returns that ABORT at once, not at its idle watchdog (30 s by default). A
// relay between the two turns the receiver's HAVE of no packets into one of
// a packet of a striped object, which no striped sender accepts.
func TestSessionRefusedHaveAbortsReceiver(t *testing.T) {
	const ps = 1024
	obj := makeObj(16 * ps)
	ep := listen(t, bySession, Options{})
	ep.recv(1)
	up := dialRaw(t, ep.l.Addr(), nil) // the relay's leg to the receiver
	relay := newFakeReceiver(t, false)
	go func() {
		down, err := relay.tcp.AcceptTCP()
		if err != nil {
			return
		}
		defer down.Close()
		go io.Copy(up.ctl, down) // the sender's frames, its ABORT included, verbatim
		f, err := readControlFrame(up.ctl)
		if err != nil || f.typ != wire.TypeHave {
			t.Errorf("relay: the receiver answered type %d, %v; want a HAVE", f.typ, err)
			return
		}
		f.have.Received = 1
		down.Write(wire.AppendHave(nil, &f.have))
		io.Copy(down, up.ctl)
	}()

	sess, err := OpenSession(ep.ctx, relay.addr(), Options{Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Send(ep.ctx, obj, core.Config{PacketSize: ps}); err == nil {
		t.Fatal("the sender accepted a HAVE of one packet of a striped object")
	}
	refused := time.Now()
	select {
	case r := <-ep.got:
		var abort *AbortError
		if !errors.As(r.err, &abort) || abort.Reason != wire.AbortBadHello {
			t.Fatalf("Next err = %v, want the sender's ABORT(%s)", r.err, wire.AbortBadHello)
		}
		if took := time.Since(refused); took > time.Second {
			t.Fatalf("Next returned %v after the refusal, want within 1s", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still waits 5s after the sender refused its HAVE")
	}
}
