package cli

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/internal/core"
)

// effective is cfg as a transfer runs it, defaults filled in.
func effective(cfg fobs.Config) fobs.Config {
	return core.NewSender(make([]byte, 1), cfg).Config()
}

// TestEmptyCommandLineKeepsDefaults: with no flags each command builds the
// Options and Config it built when it declared its own flags — the literals
// below — so moving the flags into one set changed no default.
func TestEmptyCommandLineKeepsDefaults(t *testing.T) {
	for _, tc := range []struct {
		spec    Spec
		opts    fobs.Options
		cfg     fobs.Config
		timeout time.Duration
	}{
		{Send,
			fobs.Options{Congestion: fobs.CCFixed, Streams: 1},
			fobs.Config{PacketSize: fobs.PacketSize, AckFrequency: fobs.DefaultAckFrequency, Batch: fobs.FixedBatch(fobs.DefaultBatch)},
			10 * time.Minute},
		{Recv, fobs.Options{}, fobs.Config{}, 10 * time.Minute},
		{Copy,
			fobs.Options{Congestion: fobs.CCFixed, Streams: 1},
			fobs.Config{PacketSize: fobs.PacketSize, Checksum: true},
			time.Hour},
	} {
		c := Parse(tc.spec, nil)
		if !reflect.DeepEqual(c.Options, tc.opts) {
			t.Errorf("%s: Options %+v, want %+v", tc.spec.Name, c.Options, tc.opts)
		}
		if got, want := effective(c.Config), effective(tc.cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Config %+v, want %+v", tc.spec.Name, got, want)
		}
		if c.Timeout != tc.timeout {
			t.Errorf("%s: -timeout %v, want %v", tc.spec.Name, c.Timeout, tc.timeout)
		}
	}
}

// TestFlagsReachTheirFields: each flag, given a value other than its
// default, lands in the one field or input it names, on every command that
// offers it.
func TestFlagsReachTheirFields(t *testing.T) {
	s := Parse(Send, []string{
		"-addr", "10.0.0.1:7", "-file", "obj.bin", "-size", "3MiB", "-timeout", "1m",
		"-packet-size", "8192", "-pace", "3ms", "-cc", "aimd", "-streams", "4", "-no-dedup",
		"-retries", "2", "-retry-backoff", "100ms", "-stall-timeout", "-1s", "-handshake-timeout", "2s",
	})
	want := fobs.Options{
		Pace: 3 * time.Millisecond, Congestion: "aimd", Streams: 4, NoDedup: true,
		StallTimeout: -time.Second, HandshakeTimeout: 2 * time.Second,
		Retry: &fobs.RetryPolicy{MaxRetries: 2, Backoff: 100 * time.Millisecond},
	}
	if !reflect.DeepEqual(s.Options, want) {
		t.Errorf("fobs-send: Options %+v, want %+v", s.Options, want)
	}
	if s.Config != (fobs.Config{PacketSize: 8192}) {
		t.Errorf("fobs-send: Config %+v", s.Config)
	}
	if s.Addr != "10.0.0.1:7" || s.File != "obj.bin" || s.Size != "3MiB" || s.Timeout != time.Minute {
		t.Errorf("fobs-send: inputs %q %q %q %v", s.Addr, s.File, s.Size, s.Timeout)
	}
	if p := Parse(Send, []string{"-progress"}); p.Options.Progress == nil {
		t.Error("fobs-send -progress: no Options.Progress")
	}

	r := Parse(Recv, []string{
		"-listen", "0.0.0.0:9", "-out", "got.bin",
		"-idle-timeout", "5s", "-resume-window", "-1s", "-checkpoint", "ckpt",
	})
	want = fobs.Options{IdleTimeout: 5 * time.Second, ResumeWindow: -time.Second, Checkpoint: "ckpt"}
	if !reflect.DeepEqual(r.Options, want) {
		t.Errorf("fobs-recv: Options %+v, want %+v", r.Options, want)
	}
	if r.Listen != "0.0.0.0:9" || r.Out != "got.bin" {
		t.Errorf("fobs-recv: inputs %q %q", r.Listen, r.Out)
	}

	cp := Parse(Copy, []string{
		"-send", "src", "-recv", "dst", "-addr", "h:1", "-listen", "h:2",
		"-packet-size", "4096", "-checksum=false", "-pace", "3ms", "-cc", "sabul", "-streams", "2",
		"-no-dedup", "-resume-window", "2m", "-checkpoint", "ck",
	})
	want = fobs.Options{
		Pace: 3 * time.Millisecond, Congestion: "sabul", Streams: 2, NoDedup: true,
		ResumeWindow: 2 * time.Minute, Checkpoint: "ck",
	}
	if !reflect.DeepEqual(cp.Options, want) {
		t.Errorf("fobs-cp: Options %+v, want %+v", cp.Options, want)
	}
	if cp.Config != (fobs.Config{PacketSize: 4096}) {
		t.Errorf("fobs-cp: Config %+v", cp.Config)
	}
	if cp.Send != "src" || cp.Recv != "dst" || cp.Addr != "h:1" || cp.Listen != "h:2" {
		t.Errorf("fobs-cp: inputs %q %q %q %q", cp.Send, cp.Recv, cp.Addr, cp.Listen)
	}
	if s.Options.Pace != cp.Options.Pace {
		t.Errorf("-pace 3ms: fobs-send Pace %v, fobs-cp Pace %v", s.Options.Pace, cp.Options.Pace)
	}
}

// TestInstrumentFlagsOpen: the instrument flags reach Options only through
// Open, and the function Open returns seals what it opened.
func TestInstrumentFlagsOpen(t *testing.T) {
	dir := t.TempDir()
	c := Parse(Send, []string{
		"-io-stats", "-record", filepath.Join(dir, "x.fobrec"), "-events", filepath.Join(dir, "x.events"),
	})
	if c.Options.IOCounters != nil || c.Options.Record != nil || c.Options.Trace != nil || c.Options.Metrics != nil {
		t.Fatalf("instruments set before Open: %+v", c.Options)
	}
	closeAll, err := c.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	if c.Options.IOCounters == nil || c.Options.Record == nil || c.Options.Trace == nil || c.Options.Metrics == nil {
		t.Fatalf("Open left an instrument unset: %+v", c.Options)
	}
}
