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
		{"readBuffer", o.readBuffer, 4 << 20},
		{"socketBuffer", socketBuffer, 4 << 20},
		{"idlePoll", o.idlePoll, 2 * time.Millisecond},
		{"StallTimeout", o.StallTimeout, 15 * time.Second},
		{"IdleTimeout", o.IdleTimeout, 30 * time.Second},
		{"HandshakeTimeout", o.HandshakeTimeout, 10 * time.Second},
		{"ioBatch", o.ioBatch, 32},
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
		readBuffer:   1 << 20,
		StallTimeout: -1, // disabled, per the field docs
		IdleTimeout:  -1,
		ioBatch:      -5,
		Streams:      -2,
	}.withDefaults()
	if o.readBuffer != 1<<20 {
		t.Errorf("explicit readBuffer overridden: %d", o.readBuffer)
	}
	if o.StallTimeout != -1 || o.IdleTimeout != -1 {
		t.Errorf("negative watchdogs not preserved: %v/%v", o.StallTimeout, o.IdleTimeout)
	}
	if o.ioBatch != 1 {
		t.Errorf("ioBatch floor = %d, want clamp to 1", o.ioBatch)
	}
	if o.Streams != 1 {
		t.Errorf("Streams floor = %d, want clamp to 1", o.Streams)
	}
	if o2 := (Options{Streams: 8}).withDefaults(); o2.Streams != 8 {
		t.Errorf("explicit Streams overridden: %d", o2.Streams)
	}
}
