package udprt

import (
	"testing"
	"time"
)

// TestOptionsDefaults pins every default withDefaults fills in. These are
// documented contract, not implementation detail: DESIGN.md and the CLI
// help quote them, and a silent change would alter watchdog and buffer
// behaviour for every caller that relies on the zero Options.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"ReadBuffer", o.ReadBuffer, 4 << 20},
		{"WriteBuffer", o.WriteBuffer, 4 << 20},
		{"IdlePoll", o.IdlePoll, 2 * time.Millisecond},
		{"StallTimeout", o.StallTimeout, 15 * time.Second},
		{"IdleTimeout", o.IdleTimeout, 30 * time.Second},
		{"HandshakeTimeout", o.HandshakeTimeout, 10 * time.Second},
		{"IOBatch", o.IOBatch, DefaultIOBatch},
		{"Streams", o.Streams, 1},
		{"Pace", o.Pace, time.Duration(0)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("default %s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestOptionsDefaultsPreserveExplicit: explicit settings survive, including
// the documented negative sentinels that disable the watchdogs, and the
// degenerate values are clamped to sane floors.
func TestOptionsDefaultsPreserveExplicit(t *testing.T) {
	o := Options{
		ReadBuffer:   1 << 20,
		StallTimeout: -1, // disabled, per the field docs
		IdleTimeout:  -1,
		IOBatch:      -5,
		Streams:      -2,
	}.withDefaults()
	if o.ReadBuffer != 1<<20 {
		t.Errorf("explicit ReadBuffer overridden: %d", o.ReadBuffer)
	}
	if o.StallTimeout != -1 || o.IdleTimeout != -1 {
		t.Errorf("negative watchdogs not preserved: %v/%v", o.StallTimeout, o.IdleTimeout)
	}
	if o.IOBatch != 1 {
		t.Errorf("IOBatch floor = %d, want clamp to 1", o.IOBatch)
	}
	if o.Streams != 1 {
		t.Errorf("Streams floor = %d, want clamp to 1", o.Streams)
	}
	if o2 := (Options{Streams: 8}).withDefaults(); o2.Streams != 8 {
		t.Errorf("explicit Streams overridden: %d", o2.Streams)
	}
}
