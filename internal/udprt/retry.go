// Resumable transfers, send side: a retry supervisor around Send that
// classifies failures and re-dials with jittered exponential backoff under a
// total-deadline budget. It needs no resume mode of its own: every attempt
// announces the same content, and a receiver that retained part of an
// earlier attempt answers the CHECK with that bitmap, so the retry sends
// only the missing packets. Only genuinely terminal verdicts (digest
// mismatch, version rejection, cancellation) stop the supervisor early.
package udprt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// ErrDigestMismatch reports that the assembled object does not match the
// content identity its CHECK announced — the transfer delivered (or resumed
// onto) different bytes. It is terminal: retrying the same exchange cannot
// fix it.
var ErrDigestMismatch = errors.New("udprt: object digest mismatch")

// RetryPolicy configures the sender-side supervisor that Options.Retry
// enables. The zero value of each field selects its default; a negative
// MaxRetries disables retries (the supervisor then only adds the Budget
// bound and error classification).
type RetryPolicy struct {
	// MaxRetries is how many re-attempts follow the first failed Send
	// (default 3; negative means none).
	MaxRetries int
	// Backoff is the delay before the first retry, doubling on each
	// further attempt; every delay is jittered to 50–100% of its nominal
	// value (default 500ms).
	Backoff time.Duration
	// MaxBackoff caps the grown delay (default 15s).
	MaxBackoff time.Duration
	// Budget bounds the total wall clock across every attempt, backoffs
	// included (default 0: no bound beyond the caller's context).
	Budget time.Duration
	// Seed pins the jitter source for reproducible retry schedules
	// (default 0: seeded from the clock).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.Backoff == 0 {
		p.Backoff = 500 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 15 * time.Second
	}
	return p
}

// delay computes the jittered backoff before retry attempt n (1-based).
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	d := p.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxBackoff || d <= 0 {
			d = p.MaxBackoff
			break
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(rng.Int63n(int64(half)+1))
	}
	return d
}

// IsRetryable classifies a Send (or Accept) error for the supervisor:
// true for transient failures another attempt could clear — watchdog
// firings on either end, severed or refused connections, timeouts — and
// false for terminal verdicts: cancellation, version rejection, digest
// mismatch, and peer aborts that a retry would only repeat.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrDigestMismatch) ||
		errors.Is(err, wire.ErrCheckVersion) ||
		errors.Is(err, ErrSessionBroken) {
		return false
	}
	var abort *AbortError
	if errors.As(err, &abort) {
		switch abort.Reason {
		case wire.AbortStalled, wire.AbortIdleTimeout, wire.AbortCancelled, wire.AbortUnspecified:
			// The peer's watchdog fired or it was torn down mid-flight;
			// its listener may well accept a reconnect.
			return true
		default:
			// Bad hello, duplicate id, unsupported, digest mismatch: a
			// deliberate rejection that a retry would only repeat.
			return false
		}
	}
	if errors.Is(err, ErrStalled) || errors.Is(err, ErrIdle) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var op *net.OpError
	return errors.As(err, &op)
}

// sendSupervised is Send with Options.Retry set: attempts run under the
// policy's budget and failures are classified. The returned stats are the
// final attempt's (each attempt is its own transfer run, so its
// conservation laws hold within the attempt).
func sendSupervised(ctx context.Context, addr string, obj []byte, cfg core.Config, opts Options) (core.SenderStats, error) {
	pol := opts.Retry.withDefaults()
	if pol.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.Budget)
		defer cancel()
	}
	seed := pol.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	if opts.Trace != nil && opts.TraceID.IsZero() {
		// Pin one trace id across every attempt, so the whole retry chain —
		// failed attempts, backoffs, the resumed finish — joins into a
		// single cross-host timeline.
		opts.TraceID = obs.NewTraceID()
	}
	sup := opts.supervisor(opts.TraceID, cfg.Transfer)
	defer sup.seal()

	st, err := sendAttempt(ctx, addr, obj, cfg, opts)
	for attempt := 1; attempt <= pol.MaxRetries && IsRetryable(err); attempt++ {
		sup.event(obs.KindRetry, uint64(attempt))
		select {
		case <-ctx.Done():
			// Budget exhausted mid-backoff: surface the last real failure,
			// not the supervisor's own deadline.
			return st, fmt.Errorf("udprt: retry budget exhausted: %w", err)
		case <-time.After(pol.delay(attempt, rng)):
		}
		st, err = sendAttempt(ctx, addr, obj, cfg, opts)
	}
	return st, err
}
