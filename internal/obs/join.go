package obs

import (
	"sort"
	"time"
)

// Timeline is one endpoint's ordered view of one traced transfer: the
// unit the cross-host join produces. Events are sorted by the
// endpoint's own monotonic clock.
type Timeline struct {
	Trace    string
	Transfer uint32
	Role     Role
	Events   []Event
}

// Join groups events — typically the sender-side and receiver-side
// logs of the same run — by trace id, then by (role, transfer) within
// each trace. Timelines within a trace are ordered sender first, then
// receiver, then by transfer id, so the two halves of one
// transfer sit next to each other. Events without a trace id are
// grouped under the empty key.
func Join(logs ...[]Event) map[string][]Timeline {
	type key struct {
		trace    string
		role     Role
		transfer uint32
	}
	byKey := make(map[key]*Timeline)
	for _, evs := range logs {
		for _, ev := range evs {
			k := key{ev.Trace, ev.Role, ev.Transfer}
			tl, ok := byKey[k]
			if !ok {
				tl = &Timeline{Trace: ev.Trace, Transfer: ev.Transfer, Role: ev.Role}
				byKey[k] = tl
			}
			tl.Events = append(tl.Events, ev)
		}
	}
	out := make(map[string][]Timeline, len(byKey))
	for _, tl := range byKey {
		sort.SliceStable(tl.Events, func(i, j int) bool { return tl.Events[i].At < tl.Events[j].At })
		out[tl.Trace] = append(out[tl.Trace], *tl)
	}
	for _, tls := range out {
		sort.Slice(tls, func(i, j int) bool {
			if tls[i].Role != tls[j].Role {
				return tls[i].Role < tls[j].Role
			}
			return tls[i].Transfer < tls[j].Transfer
		})
	}
	return out
}

// PhaseSpan is one row of a waterfall: the phase entered at Start and
// left at End (the next phase event, or the timeline's last event for
// the final span). Point events (retry, stall, verify, terminal kinds)
// get zero-length spans.
type PhaseSpan struct {
	Kind  Kind
	Arg   uint64
	Start time.Duration
	End   time.Duration
}

// Duration returns the span length.
func (p PhaseSpan) Duration() time.Duration { return p.End - p.Start }

// Waterfall reduces one timeline to ordered phase spans: each event
// opens a span that the next event closes. The result is the
// per-endpoint "where did the time go" view the analyzer prints.
func Waterfall(tl Timeline) []PhaseSpan {
	if len(tl.Events) == 0 {
		return nil
	}
	out := make([]PhaseSpan, 0, len(tl.Events))
	for i, ev := range tl.Events {
		sp := PhaseSpan{Kind: ev.Kind, Arg: ev.Arg, Start: ev.Time(), End: ev.Time()}
		if i+1 < len(tl.Events) {
			sp.End = tl.Events[i+1].Time()
		}
		out = append(out, sp)
	}
	return out
}

// PhaseOrder returns the sequence of kinds in a timeline — the thing a
// test asserts against an expected lifecycle.
func PhaseOrder(tl Timeline) []Kind {
	out := make([]Kind, len(tl.Events))
	for i, ev := range tl.Events {
		out[i] = ev.Kind
	}
	return out
}
