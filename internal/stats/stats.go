// Package stats defines the common result record every protocol driver
// (FOBS, TCP, PSockets, RUDP, SABUL) produces, plus small formatting
// helpers the experiment harness uses to print the paper's tables and
// figures.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TransferResult summarizes one bulk transfer, whatever the protocol.
type TransferResult struct {
	// Protocol names the implementation ("fobs", "tcp+lwe", "psockets", …).
	Protocol string
	// Bytes is the object size delivered.
	Bytes int64
	// Elapsed is the virtual (or real) transfer duration.
	Elapsed time.Duration
	// Completed is false if the run hit its simulation time limit first.
	Completed bool

	// PacketsSent counts every data packet (or segment) placed on the
	// network, retransmissions included; PacketsNeeded is the minimum.
	PacketsSent   int
	PacketsNeeded int
	// Duplicates counts packets the receiver already held.
	Duplicates int

	// Extra carries protocol-specific metrics ("timeouts", "streams", …).
	Extra map[string]float64
}

// Goodput returns delivered application bits per second.
func (r TransferResult) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes*8) / r.Elapsed.Seconds()
}

// Utilization returns goodput as a fraction of the given link rate
// (bits per second) — the paper's "percentage of the maximum available
// bandwidth".
func (r TransferResult) Utilization(linkRate float64) float64 {
	if linkRate <= 0 {
		return 0
	}
	return r.Goodput() / linkRate
}

// Waste returns the paper's wasted-network-resources metric: extra packets
// sent as a fraction of the packets needed.
func (r TransferResult) Waste() float64 {
	if r.PacketsNeeded == 0 {
		return 0
	}
	return float64(r.PacketsSent-r.PacketsNeeded) / float64(r.PacketsNeeded)
}

// WithExtra returns a copy of r with key set in Extra.
func (r TransferResult) WithExtra(key string, v float64) TransferResult {
	ex := make(map[string]float64, len(r.Extra)+1)
	for k, val := range r.Extra {
		ex[k] = val
	}
	ex[key] = v
	r.Extra = ex
	return r
}

func (r TransferResult) String() string {
	return fmt.Sprintf("%s: %s in %v (%.1f Mb/s, waste %.1f%%)",
		r.Protocol, FormatBytes(r.Bytes), r.Elapsed.Round(time.Millisecond),
		r.Goodput()/1e6, 100*r.Waste())
}

// IOCounters tallies the socket-level work behind one endpoint of a real
// transfer: how many syscalls moved how many datagrams, and how full the
// batched vectors ran. SentDatagrams/SendCalls is the quantity the batched
// fast path exists to raise — the scalar path is pinned at 1.0.
type IOCounters struct {
	// SendCalls counts send syscalls (sendmmsg or scalar writes);
	// SentDatagrams counts datagrams they placed on the wire.
	SendCalls, SentDatagrams int
	// RecvCalls counts receive syscalls (recvmmsg, reads, or
	// non-blocking polls — including empty polls); RecvDatagrams counts
	// datagrams they returned.
	RecvCalls, RecvDatagrams int
	// SendTrains and RecvTrains count the messages among those syscalls
	// that carried more than one datagram (UDP_SEGMENT on the way out,
	// UDP_GRO on the way in). Zero on a vectored path means segmentation
	// offload is not engaged: the kernel refused it, or every flush was a
	// single datagram.
	SendTrains, RecvTrains int
	// MaxSendBatch and MaxRecvBatch are the largest numbers of datagrams one
	// flush sent and one drain delivered.
	MaxSendBatch, MaxRecvBatch int
	// RecvOverflow counts what the kernel dropped at this endpoint's own
	// data socket because its receive buffer was full (SO_RXQ_OVFL) — loss
	// in the host, not on the wire. The kernel counts buffers, so a datagram
	// train dropped whole counts once. Only the vectored path on Linux reads
	// it: zero on the scalar path and elsewhere means not measured.
	RecvOverflow int
	// PaceWait is the time a sender spent waiting on its pacing clock, apart
	// from its waits for news or for room in the receiver's window.
	PaceWait time.Duration
	// FastPath reports whether the vectored sendmmsg/recvmmsg path was
	// active.
	FastPath bool
}

// Add accumulates o into c, field by field (FastPath ors: a transfer whose
// either direction ran vectored counts as fast-path).
func (c *IOCounters) Add(o IOCounters) {
	c.SendCalls += o.SendCalls
	c.SentDatagrams += o.SentDatagrams
	c.RecvCalls += o.RecvCalls
	c.RecvDatagrams += o.RecvDatagrams
	c.SendTrains += o.SendTrains
	c.RecvTrains += o.RecvTrains
	c.RecvOverflow += o.RecvOverflow
	c.PaceWait += o.PaceWait
	if o.MaxSendBatch > c.MaxSendBatch {
		c.MaxSendBatch = o.MaxSendBatch
	}
	if o.MaxRecvBatch > c.MaxRecvBatch {
		c.MaxRecvBatch = o.MaxRecvBatch
	}
	c.FastPath = c.FastPath || o.FastPath
}

// AvgSendBatch returns datagrams per send syscall (zero when none ran).
func (c IOCounters) AvgSendBatch() float64 {
	if c.SendCalls == 0 {
		return 0
	}
	return float64(c.SentDatagrams) / float64(c.SendCalls)
}

// AvgRecvBatch returns datagrams per receive syscall, empty polls
// included — for a sender's hot ack poll this is honest syscall-cost
// accounting, while a receive loop (which blocks until at least one
// datagram) reads it as vector fill.
func (c IOCounters) AvgRecvBatch() float64 {
	if c.RecvCalls == 0 {
		return 0
	}
	return float64(c.RecvDatagrams) / float64(c.RecvCalls)
}

func (c IOCounters) String() string {
	path := "scalar"
	if c.FastPath {
		path = "vectored"
	}
	s := fmt.Sprintf("%s io: %d datagrams out in %d syscalls (avg %.1f, max %d, %d trains); %d in over %d syscalls (max %d, %d trains), %d dropped at the socket",
		path, c.SentDatagrams, c.SendCalls, c.AvgSendBatch(), c.MaxSendBatch, c.SendTrains,
		c.RecvDatagrams, c.RecvCalls, c.MaxRecvBatch, c.RecvTrains, c.RecvOverflow)
	if c.PaceWait > 0 {
		s += fmt.Sprintf("; %v waiting on pacing", c.PaceWait.Round(time.Microsecond))
	}
	return s
}

// FormatBytes renders a byte count in binary units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Percent renders a fraction as a percentage string.
func Percent(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }

// Table renders rows of labelled values as an aligned text table, in the
// spirit of the paper's Tables 1 and 2.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// AddRow appends one row; cells beyond len(Columns) are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		cells = cells[:len(t.Columns)]
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render returns the formatted table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Series is an (x, y) sweep result — one curve of a figure.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Render prints the series as aligned columns, one point per row.
func (s *Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s vs %s\n", s.Name, s.YLabel, s.XLabel)
	for i := range s.X {
		fmt.Fprintf(&b, "%12g  %12g\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// PeakY returns the maximum Y value and its X, or zeros for an empty
// series.
func (s *Series) PeakY() (x, y float64) {
	for i := range s.X {
		if s.Y[i] > y {
			x, y = s.X[i], s.Y[i]
		}
	}
	return x, y
}

// MinY returns the minimum Y value and its X, or zeros for an empty series.
func (s *Series) MinY() (x, y float64) {
	if len(s.X) == 0 {
		return 0, 0
	}
	x, y = s.X[0], s.Y[0]
	for i := range s.X {
		if s.Y[i] < y {
			x, y = s.X[i], s.Y[i]
		}
	}
	return x, y
}

// Figure is a set of series sharing axes, like Figure 1's short- and
// long-haul curves.
type Figure struct {
	Title  string
	Series []*Series
}

// CSV renders the figure as comma-separated values: an x column followed
// by one column per series (empty cells where a series lacks that x).
func (f *Figure) CSV() string {
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			cell := ""
			for i := range s.X {
				if s.X[i] == x {
					cell = fmt.Sprintf("%g", s.Y[i])
					break
				}
			}
			fmt.Fprintf(&b, ",%s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render prints every series, aligned by X where they match.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	// Collect the union of X values.
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	fmt.Fprintf(&b, "%14s", "x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %18s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%14g", x)
		for _, s := range f.Series {
			cell := ""
			for i := range s.X {
				if s.X[i] == x {
					cell = fmt.Sprintf("%.4g", s.Y[i])
					break
				}
			}
			fmt.Fprintf(&b, "  %18s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
