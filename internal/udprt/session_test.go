package udprt

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
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
