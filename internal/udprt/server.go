package udprt

import (
	"context"
	"errors"
	"sync"

	"github.com/hpcnet/fobs/internal/core"
)

// Server is a Listener that runs many transfers at once: every
// announcement the endpoint's control connections carry runs on its own
// goroutine through the same receive lifecycle Accept runs, while the
// endpoint's one loop demultiplexes data packets to them by transfer tag —
// striped transfers included, one tag per stripe. Each sender must therefore
// pick transfer tags distinct from those of other transfers in flight to the
// same server; a colliding announcement is rejected with an ABORT (duplicate
// transfer id) rather than silently dropped, so the colliding sender fails
// fast instead of timing out. A connection serves announcements, one at a
// time, until its sender closes it. Close (the Listener's) stops the server,
// closes every connection and ends the loop.
type Server struct {
	*Listener
}

// NewServer binds addr for concurrent incoming transfers.
func NewServer(addr string, opts Options) (*Server, error) {
	l, err := Listen(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Server{l}, nil
}

// Handler receives each completed transfer. It runs on the transfer's own
// goroutine, after the transfer's connection has been given back to serve
// its sender's next announcement; the object is owned by the handler.
type Handler func(transfer uint32, obj []byte, st core.ReceiverStats)

// Serve runs every announcement the endpoint's control connections carry
// until ctx is cancelled or the server is closed, passing each completed
// transfer to handle, and returns once every transfer it started has ended.
// The endpoint's receive loop and its control connections are not Serve's:
// they outlast it until Close.
func (s *Server) Serve(ctx context.Context, handle Handler) error {
	if handle == nil {
		return errors.New("udprt: nil handler")
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		ls, err := s.lease(ctx)
		if err != nil {
			return nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, obj, st, err := s.receive(ctx, ls.rd)
			ls.giveBack(err == nil)
			if err == nil {
				handle(plan.base, obj, st)
			}
		}()
	}
}
