package stats

import (
	"strings"
	"testing"
	"time"
)

func TestGoodputAndUtilization(t *testing.T) {
	r := TransferResult{Bytes: 1e6, Elapsed: time.Second}
	if got := r.Goodput(); got != 8e6 {
		t.Fatalf("Goodput = %v, want 8e6", got)
	}
	if got := r.Utilization(100e6); got != 0.08 {
		t.Fatalf("Utilization = %v, want 0.08", got)
	}
	if (TransferResult{}).Goodput() != 0 {
		t.Fatal("zero-duration goodput not 0")
	}
	if r.Utilization(0) != 0 {
		t.Fatal("zero-rate utilization not 0")
	}
}

func TestWaste(t *testing.T) {
	r := TransferResult{PacketsSent: 110, PacketsNeeded: 100}
	if got := r.Waste(); got != 0.1 {
		t.Fatalf("Waste = %v, want 0.1", got)
	}
	if (TransferResult{}).Waste() != 0 {
		t.Fatal("zero-needed waste not 0")
	}
}

func TestWithExtraCopies(t *testing.T) {
	a := TransferResult{}
	b := a.WithExtra("k", 1)
	if a.Extra != nil {
		t.Fatal("WithExtra mutated the original")
	}
	if b.Extra["k"] != 1 {
		t.Fatal("WithExtra lost the value")
	}
	c := b.WithExtra("j", 2)
	if len(c.Extra) != 2 || c.Extra["k"] != 1 {
		t.Fatalf("chained WithExtra = %v", c.Extra)
	}
}

func TestStringFormat(t *testing.T) {
	r := TransferResult{Protocol: "fobs", Bytes: 40 << 20, Elapsed: 4 * time.Second,
		PacketsSent: 103, PacketsNeeded: 100}
	out := r.String()
	for _, want := range []string{"fobs", "40.0 MiB", "3.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String %q missing %q", out, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	for in, want := range map[int64]string{
		512:     "512 B",
		2 << 10: "2.0 KiB",
		3 << 20: "3.0 MiB",
		5 << 30: "5.0 GiB",
	} {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bbbb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4", "dropped-extra-cell")
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Fatalf("missing title: %q", lines[0])
	}
	if strings.Contains(out, "dropped-extra-cell") {
		t.Fatal("extra cell not dropped")
	}
	if !strings.Contains(lines[1], "a") || !strings.Contains(lines[1], "bbbb") {
		t.Fatalf("header %q", lines[1])
	}
}

func TestSeriesPeakAndMin(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(1, 10)
	s.Add(2, 30)
	s.Add(3, 5)
	if x, y := s.PeakY(); x != 2 || y != 30 {
		t.Fatalf("PeakY = %v,%v", x, y)
	}
	if x, y := s.MinY(); x != 3 || y != 5 {
		t.Fatalf("MinY = %v,%v", x, y)
	}
	empty := &Series{}
	if _, y := empty.PeakY(); y != 0 {
		t.Fatal("empty PeakY not 0")
	}
	if _, y := empty.MinY(); y != 0 {
		t.Fatal("empty MinY not 0")
	}
}

func TestSeriesRender(t *testing.T) {
	s := &Series{Name: "curve", XLabel: "f", YLabel: "util"}
	s.Add(8, 0.9)
	out := s.Render()
	if !strings.Contains(out, "curve") || !strings.Contains(out, "0.9") {
		t.Fatalf("render %q", out)
	}
}

func TestFigureRenderAlignsSeries(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "b"}
	b.Add(2, 200)
	fig := &Figure{Title: "F", Series: []*Series{a, b}}
	out := fig.Render()
	if !strings.Contains(out, "F") || !strings.Contains(out, "200") {
		t.Fatalf("figure render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, two x rows
		t.Fatalf("figure lines = %d:\n%s", len(lines), out)
	}
}

func TestFigureCSV(t *testing.T) {
	a := &Series{Name: "short"}
	a.Add(1, 10)
	a.Add(4, 40)
	b := &Series{Name: "long"}
	b.Add(4, 44)
	fig := &Figure{Series: []*Series{a, b}}
	got := fig.CSV()
	want := "x,short,long\n1,10,\n4,40,44\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// TestIOCountersTrains: train counts — and what the socket dropped — are
// summed like the syscall counts and show in the -io-stats line, so
// "segmentation engaged" and "32 plain datagrams per sendmmsg" read
// differently, and loss in the host reads differently from loss on the wire.
func TestIOCountersTrains(t *testing.T) {
	c := IOCounters{SendCalls: 2, SentDatagrams: 64, SendTrains: 2, MaxSendBatch: 32, RecvOverflow: 2, FastPath: true}
	c.Add(IOCounters{SendCalls: 1, SentDatagrams: 32, SendTrains: 1, RecvCalls: 3, RecvDatagrams: 96, RecvTrains: 3, MaxRecvBatch: 64, RecvOverflow: 5})
	if c.SendTrains != 3 || c.RecvTrains != 3 || c.SentDatagrams != 96 || c.MaxRecvBatch != 64 || c.RecvOverflow != 7 {
		t.Fatalf("Add = %+v", c)
	}
	got := c.String()
	if !strings.Contains(got, "avg 32.0, max 32, 3 trains") || !strings.Contains(got, "(max 64, 3 trains), 7 dropped at the socket") {
		t.Fatalf("String = %q", got)
	}
	if strings.Contains(got, "pacing") {
		t.Fatalf("unpaced String = %q mentions pacing", got)
	}
}

// TestIOCountersPaceWait: the time stripes spent waiting on their pacing
// clocks sums across them and shows in the -io-stats line.
func TestIOCountersPaceWait(t *testing.T) {
	c := IOCounters{PaceWait: 30 * time.Millisecond}
	c.Add(IOCounters{PaceWait: 12 * time.Millisecond})
	if c.PaceWait != 42*time.Millisecond {
		t.Fatalf("Add: PaceWait = %v, want 42ms", c.PaceWait)
	}
	if got := c.String(); !strings.HasSuffix(got, "; 42ms waiting on pacing") {
		t.Fatalf("String = %q", got)
	}
}
