package udprt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

// Server is a Listener that runs many transfers at once: its accept loop
// hands every control connection its own goroutine running the same receive
// lifecycle Accept runs, while the endpoint's one loop demultiplexes data
// packets to them by transfer tag — striped transfers included, one tag per
// stripe. Each sender must therefore pick transfer tags distinct from those
// of other transfers in flight to the same server; a colliding announcement
// is rejected with an ABORT (duplicate transfer id) rather than silently
// dropped, so the colliding sender fails fast instead of timing out. Close
// (the Listener's) stops the server and ends the loop.
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
// goroutine; the object is owned by the handler.
type Handler func(transfer uint32, obj []byte, st core.ReceiverStats)

// Serve accepts control connections until ctx is cancelled or the server is
// closed, passing each completed transfer to handle, and returns once every
// transfer it started has ended. The endpoint's receive loop is not Serve's:
// it keeps draining the data socket until Close.
func (s *Server) Serve(ctx context.Context, handle Handler) error {
	if handle == nil {
		return errors.New("udprt: nil handler")
	}
	var wg sync.WaitGroup
	defer wg.Wait()

	// One watcher covers the whole accept loop: ctx cancellation kicks
	// the blocking accept out via an immediate deadline, and the deadline
	// is cleared on the way out so the listener stays usable.
	stop := unblockOnDone(ctx, s.tcp.SetDeadline)
	defer func() {
		stop()
		s.tcp.SetDeadline(time.Time{})
	}()

	for {
		ctl, err := s.tcp.AcceptTCP()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("udprt: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := readControl(ctl)
			defer rd.close()
			if plan, obj, st, err := s.receive(ctx, rd); err == nil {
				handle(plan.base, obj, st)
			}
		}()
	}
}
