package udprt

import (
	"context"
	"errors"
	"sync"

	"github.com/hpcnet/fobs/internal/core"
)

// Handler receives each completed transfer. It runs on the transfer's own
// goroutine, after the transfer's connection has been given back to serve
// its sender's next announcement; the object is owned by the handler.
type Handler func(transfer uint32, obj []byte, st core.ReceiverStats)

// Serve runs every announcement the endpoint's control connections carry,
// many at once, until ctx is cancelled or the endpoint is closed, passing
// each completed transfer to handle, and returns once every transfer it
// started has ended. Each announcement runs on its own goroutine through the
// same receive lifecycle Accept runs, while the endpoint's one loop
// demultiplexes data packets to them by transfer tag — striped transfers
// included, one tag per stripe. Each sender must therefore pick transfer
// tags distinct from those of other transfers in flight to the same
// endpoint; a colliding announcement is rejected with an ABORT (duplicate
// transfer id) rather than silently dropped, so the colliding sender fails
// fast instead of timing out. The endpoint's receive loop and its control
// connections are not Serve's: they outlast it until Close.
func (l *Listener) Serve(ctx context.Context, handle Handler) error {
	if handle == nil {
		return errors.New("udprt: nil handler")
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		ls, err := l.lease(ctx)
		if err != nil {
			return nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, obj, st, err := l.receive(ctx, ls.rd)
			ls.giveBack(err == nil)
			if err == nil {
				handle(plan.base, obj, st)
			}
		}()
	}
}

// Other names for Listener and Listen, kept only because the end-to-end
// benchmark's module (benchmark/) still uses them; nothing in this module
// does. They go with the next change to the benchmark.
type (
	// Server is Listener.
	Server = Listener
	// SessionListener is Listener.
	SessionListener = Listener
)

// NewServer is Listen.
func NewServer(addr string, opts Options) (*Listener, error) { return Listen(addr, opts) }

// ListenSession is Listen.
func ListenSession(addr string, opts Options) (*Listener, error) { return Listen(addr, opts) }
