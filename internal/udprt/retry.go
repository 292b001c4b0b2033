// Resumable transfers, send side: a retry supervisor around Send that
// classifies failures, re-dials with jittered exponential backoff under a
// total-deadline budget, and — when the previous attempt already placed
// data — opens the next attempt with a RESUME so the receiver's HAVE
// bitmap excuses every packet it already holds. A peer that does not speak
// RESUME (or no longer holds the state) degrades the attempt to a fresh
// classic-HELLO transfer; only genuinely terminal verdicts (digest
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

// ErrDigestMismatch reports that sender and receiver disagree on the
// whole-object CRC — the transfer delivered (or resumed onto) different
// bytes. It is terminal: retrying the same exchange cannot fix it.
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
	// NoResume disables the RESUME fast path: every retry restarts the
	// transfer from scratch with a classic HELLO.
	NoResume bool
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
		errors.Is(err, wire.ErrHelloXVersion) ||
		errors.Is(err, wire.ErrResumeVersion) ||
		errors.Is(err, wire.ErrTraceVersion) ||
		errors.Is(err, wire.ErrCheckVersion) ||
		errors.Is(err, ErrVerifyUnsupported) ||
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
// policy's budget, failures are classified, and retries resume where the
// previous attempt left off when the peer cooperates. The returned stats
// are the final attempt's (each attempt is its own transfer run, so its
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
	sup := opts.startSpan(opts.TraceID, cfg.Transfer, obs.RoleSender)
	defer sup.seal()

	var st core.SenderStats
	var err error
	sentAny := false
	if opts.ResumeFirst && !pol.NoResume && opts.Streams <= 1 {
		// A restarted orchestrator resuming a task it had in flight: lead
		// with RESUME so a receiver still retaining state excuses every
		// packet it holds. resumed=true marks the transfer as "data may
		// already be placed" even when this attempt sent nothing (a fully
		// restored object completes without a single datagram).
		var resumed bool
		st, resumed, err = sendResume(ctx, addr, obj, cfg, opts)
		sentAny = resumed
		if !resumed && err == nil {
			// No retained state on the far side: plain fresh transfer.
			st, err = sendOnce(ctx, addr, obj, cfg, opts)
		}
	} else {
		st, err = sendOnce(ctx, addr, obj, cfg, opts)
	}
	sentAny = sentAny || st.PacketsSent > 0
	for attempt := 1; attempt <= pol.MaxRetries && IsRetryable(err); attempt++ {
		opts.Metrics.NoteRetry(cfg.Transfer, attempt)
		sup.event(obs.KindRetry, uint64(attempt))
		select {
		case <-ctx.Done():
			// Budget exhausted mid-backoff: surface the last real failure,
			// not the supervisor's own deadline.
			return st, fmt.Errorf("udprt: retry budget exhausted: %w", err)
		case <-time.After(pol.delay(attempt, rng)):
		}
		if sentAny && !pol.NoResume && opts.Streams <= 1 {
			st2, resumed, rerr := sendResume(ctx, addr, obj, cfg, opts)
			if resumed || rerr != nil {
				st, err = st2, rerr
				sentAny = sentAny || st.PacketsSent > 0
				continue
			}
			// The peer cannot (or will not) resume: degrade to a fresh
			// transfer within the same attempt.
		}
		st, err = sendOnce(ctx, addr, obj, cfg, opts)
		sentAny = sentAny || st.PacketsSent > 0
	}
	return st, err
}

// sendResume opens one attempt with the RESUME handshake: the same exchange
// a fresh transfer runs, announcing RESUME in HELLO's place (single stream;
// the callers see to that) behind the same TRACE and CHECK preludes — the
// receiver may have completed, and cached, the object since the failed
// attempt, in which case resuming would move packets it already holds.
// resumed reports whether the peer accepted it: (resumed=false, err=nil)
// means it refused in a way a fresh transfer can cure — no connection, a
// hang-up or malformed reply (a RESUME- or extras-unaware peer fails its
// announcement parse), an ABORT carrying unsupported / no-state /
// bad-geometry, a bitmap that does not fit — and the caller falls back to
// one, whose dialHandshake ladder re-negotiates the preludes and enforces
// Options.Verify. A non-nil err is the attempt's verdict either way.
func sendResume(ctx context.Context, addr string, obj []byte, cfg core.Config, opts Options) (core.SenderStats, bool, error) {
	p, err := newSenderPlan(obj, cfg, opts)
	if err != nil {
		return core.SenderStats{}, false, err
	}
	tid := opts.senderTraceID()
	check := p.checkFrame(opts)
	frame := append(append(tracePrelude(tid), check...), p.resumeFrame()...)
	var d net.Dialer
	ctl, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return core.SenderStats{}, false, nil
	}
	defer ctl.Close()
	ans, err := exchange(ctx, ctl, frame, p.base, check != nil, true, opts.HandshakeTimeout)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return core.SenderStats{}, false, fmt.Errorf("udprt: resume handshake: %w", ctxErr)
		}
		var abort *AbortError
		if errors.As(err, &abort) {
			switch abort.Reason {
			case wire.AbortUnsupported, wire.AbortResumeUnknown, wire.AbortBadHello:
			default:
				return core.SenderStats{}, false, err
			}
		}
		return core.SenderStats{}, false, nil
	}
	// The peer accepted: with its HAVE bitmap, or — the CHECK hit, so the
	// RESUME's own HAVE never comes — with the whole object.
	restored := 0
	if !p.dedupHit(ans.check) {
		if restored, err = p.snds[0].Restore(ans.have.Words); err != nil {
			writeAbort(ctl, p.base, wire.AbortBadHello)
			return core.SenderStats{}, false, nil
		}
	}
	p.instrument(opts, tid)
	if p.accepted(ans) {
		st, err := completeDedupedSend(p, ctl)
		return st, true, err
	}
	p.event(obs.KindResume, uint64(restored))
	p.probes[0].restored(restored)
	st, err := dialAndRun(ctx, addr, p, ctl, opts)
	return st, true, err
}
