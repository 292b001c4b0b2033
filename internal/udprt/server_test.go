package udprt

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

func TestServerSingleTransfer(t *testing.T) {
	ep := listen(t, byServe, Options{})
	// The handler runs after COMPLETE is written, so after Send may return.
	if id := ep.pushOK(makeObj(512<<10), core.Config{Transfer: 7}, Options{}).id; id != 7 {
		t.Fatalf("the handler was handed transfer %d, want 7", id)
	}
}

func TestServerConcurrentTransfers(t *testing.T) {
	ep := listen(t, byServe, Options{})
	ep.recv(1)
	const n = 4
	objs := make([][]byte, n)
	rng := rand.New(rand.NewSource(77))
	for i := range objs {
		objs[i] = make([]byte, 256<<10+i*1111)
		rng.Read(objs[i])
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Send(ep.ctx, ep.l.Addr(), objs[i],
				core.Config{Transfer: uint32(i + 1)},
				Options{Pace: 5 * time.Microsecond})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	received := ep.byID(n)
	for i := 0; i < n; i++ {
		if !bytes.Equal(received[uint32(i+1)].obj, objs[i]) {
			t.Fatalf("transfer %d corrupted", i+1)
		}
	}
}

func TestServerSequentialReuseOfTransferID(t *testing.T) {
	// Once a transfer finishes, its id can be used again.
	ep := listen(t, byServe, Options{})
	for round := 0; round < 2; round++ {
		if id := ep.pushOK(makeObj(64<<10+round), core.Config{Transfer: 42}, Options{}).id; id != 42 {
			t.Fatalf("round %d: the handler was handed transfer %d, want 42", round, id)
		}
	}
}

func TestServerNilHandler(t *testing.T) {
	if err := listen(t, byServe, Options{}).l.Serve(context.Background(), nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestServerCloseStopsServe(t *testing.T) {
	ep := listen(t, byServe, Options{})
	// A transfer served is a Serve that has reached its accept loop.
	ep.pushOK(makeObj(1024), core.Config{Transfer: 1}, Options{})
	ep.l.Close()
	select {
	case err := <-ep.served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
		ep.served <- nil // for the endpoint's own close
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
