package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/hpcnet/fobs/benchmark/linkemu"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/udprt"
	"github.com/hpcnet/fobs/internal/wire"
)

// isolatedNames lists what isolated reports: whole transfers in shapes no
// workload covers, each isolating one fixed cost of the udprt layer, and
// the overhead of each of the program's three instruments.
var isolatedNames = []string{
	"udprt.min_xfer_ms_p50", "udprt.session_send_ms_p50",
	"udprt.dedup_hit_ms_p50", "udprt.dedup_hit_alloc_mib",
	"udprt.rtts_plain", "udprt.rtts_nodedup", "udprt.rtts_traced", "udprt.rtts_striped4",
	"udprt.striped_vs_single_x", "udprt.ratecap_accuracy_pct",
	"metrics.overhead_pct", "flight.overhead_pct", "obs.overhead_pct",
	"flight.bytes_per_pkt", "obs.events_per_xfer",
}

// shape runs ops operations of an ad-hoc workload, after w.warmOps
// discarded ones, and returns their tally.
func shape(w workload, seed int64, ops int) (*tally, error) {
	inst, err := w.setUp(seed, false)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if failed, first := warm(inst, w.warmOps); failed > 0 {
		return nil, fmt.Errorf("%s: %w", w.name, first)
	}
	var t tally
	inst.run(func() bool { return t.attempted >= ops }, nil, t.add)
	if t.failed > 0 {
		return nil, fmt.Errorf("%s: %w", w.name, t.firstErr)
	}
	return &t, nil
}

// isolated measures the udprt-layer fixed costs and the instruments'
// overheads. quick shortens the repeat counts for smoke tests.
func isolated(res *result, seed int64, quick bool) error {
	ops := func(n int) int {
		if quick {
			return 2
		}
		return n
	}

	// The floor under every transfer: one packet, fresh Send, Listener.
	t, err := shape(workload{name: "min_xfer", objSize: 1024, packet: 1024, warmOps: 1}, seed, ops(30))
	if err != nil {
		return err
	}
	res.set("udprt.min_xfer_ms_p50", median(t.ms), "ms")

	ms, err := sessionSends(seed, ops(30))
	if err != nil {
		return err
	}
	res.set("udprt.session_send_ms_p50", median(ms), "ms")

	hitMs, hitMiB, err := dedupHits(seed, ops(5))
	if err != nil {
		return err
	}
	res.set("udprt.dedup_hit_ms_p50", median(hitMs), "ms")
	res.set("udprt.dedup_hit_alloc_mib", hitMiB, "MiB")

	// Round trips per handshake shape: the same tiny transfer over
	// loopback and over a clean 13 ms path; the difference, in units of
	// the 26 ms round trip, is how many RTTs the shape costs end to end.
	delay := linkemu.Config{Delay: wanPath.Delay}
	rtt := 2 * delay.Delay.Seconds() * 1e3
	for _, v := range []struct {
		name string
		send udprt.Options
	}{
		{"plain", udprt.Options{}},
		{"nodedup", udprt.Options{NoDedup: true}},
		{"traced", udprt.Options{Trace: obs.NewLog(io.Discard)}},
		{"striped4", udprt.Options{Streams: 4}},
	} {
		w := workload{name: "rtts_" + v.name, objSize: 4096, packet: 1024, send: v.send, warmOps: 1}
		near, err := shape(w, seed, ops(3))
		if err != nil {
			return err
		}
		// Through the emulator a first transfer costs what a later one
		// does, give or take a millisecond of the tens being measured.
		w.emu, w.warmOps = &delay, 0
		far, err := shape(w, seed, ops(3))
		if err != nil {
			return err
		}
		if v.send.Trace != nil {
			v.send.Trace.Close()
		}
		res.set("udprt.rtts_"+v.name, (median(far.ms)-median(near.ms))/rtt, "count")
	}

	striped, _ := findWorkload("striped_8k")
	four, single := *striped, *striped
	four.warmOps, single.warmOps, single.send.Streams = 1, 1, 1
	if quick {
		four.objSize, single.objSize = 2<<20, 2<<20
	}
	fourT, err := shape(four, seed, ops(2))
	if err != nil {
		return err
	}
	oneT, err := shape(single, seed, ops(2))
	if err != nil {
		return err
	}
	res.set("udprt.striped_vs_single_x", median(oneT.ms)/median(fourT.ms), "x")

	// A 100 Mb/s tenant cap on an otherwise unconstrained loopback path.
	limit, err := udprt.NewRateCap(100e6)
	if err != nil {
		return err
	}
	size := 2 << 20
	if quick {
		size = 256 << 10
	}
	capped, err := shape(workload{name: "ratecap", objSize: size, packet: 1024,
		send: udprt.Options{RateCap: limit}}, seed, 1)
	if err != nil {
		return err
	}
	wireBits := float64(capped.sent) * (1024 + wire.DataHeaderLen + 28) * 8
	res.set("udprt.ratecap_accuracy_pct", 100*wireBits/(capped.ms[0]/1e3)/limit.Limit(), "%")

	return instruments(res, seed, ops(12))
}

// sessionSends times 64 KiB objects over one open Session: no dial, no
// socket set-up, just the per-object handshake and 64 packets.
func sessionSends(seed int64, ops int) ([]float64, error) {
	sl, err := udprt.ListenSession("127.0.0.1:0", udprt.Options{})
	if err != nil {
		return nil, err
	}
	defer sl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	obj := newObject(seed, 64<<10)
	got := make(chan []byte)
	fail := make(chan error, 1)
	go func() {
		in, err := sl.AcceptSession(ctx)
		if err != nil {
			fail <- err
			return
		}
		defer in.Close()
		for {
			o, _, err := in.Next(ctx)
			if err != nil {
				fail <- err
				return
			}
			got <- o
		}
	}()
	s, err := udprt.OpenSession(ctx, sl.Addr(), udprt.Options{})
	if err != nil {
		return nil, err
	}
	// Closing the session ends the receive goroutine's Next with an error
	// nobody reads; fail is buffered for exactly that.
	defer s.Close()
	var ms []float64
	for n := uint64(0); n <= uint64(ops); n++ {
		stamp(obj, n)
		t0 := time.Now()
		if _, err := s.Send(ctx, obj, core.Config{PacketSize: 1024}); err != nil {
			return nil, fmt.Errorf("session send: %w", err)
		}
		select {
		case o := <-got:
			if !bytes.Equal(o, obj) {
				return nil, errors.New("session delivered different bytes")
			}
		case err := <-fail:
			return nil, fmt.Errorf("session receive: %w", err)
		}
		if n > 0 { // the first object warms the path
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
	}
	return ms, nil
}

// dedupHits pushes one 16 MiB object, then pushes the same bytes again
// hits times: each repeat must complete from the receiver's content cache
// without a data packet. It returns the repeats' times and the MiB the
// process allocated per repeat.
func dedupHits(seed int64, hits int) (ms []float64, mibPerHit float64, err error) {
	lis, err := udprt.Listen("127.0.0.1:0", udprt.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer lis.Close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	obj := newObject(seed, 16<<20)
	push := func(id uint32) (core.SenderStats, time.Duration, error) {
		type accepted struct {
			obj []byte
			err error
		}
		got := make(chan accepted, 1)
		go func() {
			o, _, err := lis.Accept(ctx)
			got <- accepted{o, err}
		}()
		t0 := time.Now()
		st, err := udprt.Send(ctx, lis.Addr(), obj, core.Config{PacketSize: 1024, Transfer: id}, udprt.Options{})
		a := <-got
		took := time.Since(t0)
		switch {
		case err != nil:
			return st, took, err
		case a.err != nil:
			return st, took, a.err
		case !bytes.Equal(a.obj, obj):
			return st, took, errors.New("delivered different bytes")
		}
		return st, took, nil
	}
	if _, _, err := push(1); err != nil {
		return nil, 0, fmt.Errorf("dedup first push: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < hits; i++ {
		st, took, err := push(uint32(i) + 2)
		if err != nil {
			return nil, 0, fmt.Errorf("dedup repeat: %w", err)
		}
		if !st.Deduped || st.PacketsSent != 0 {
			return nil, 0, fmt.Errorf("repeat push was not a dedup hit (%d DATA packets sent)", st.PacketsSent)
		}
		ms = append(ms, float64(took)/1e6)
	}
	runtime.ReadMemStats(&m1)
	return ms, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(hits), nil
}

// countingWriter counts the bytes and lines an instrument's log produces.
type countingWriter struct{ bytes, lines int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += len(p)
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// instruments measures what each of the program's three instruments costs a
// bulk_1k-shaped transfer (1 KiB packets; 1 MiB objects, so that many
// fit in the time there is) when set on both endpoints, against none, one
// object at a time in rotation so drift hits every variant alike.
func instruments(res *result, seed int64, rounds int) error {
	bulk, _ := findWorkload("bulk_1k")
	var fbytes, obytes countingWriter
	flog, olog := flight.NewLog(&fbytes), obs.NewLog(&obytes)
	reg := metrics.New()
	variants := []struct {
		name string
		opts udprt.Options
	}{
		{"none", udprt.Options{}},
		{"metrics", udprt.Options{Metrics: reg}},
		{"flight", udprt.Options{Record: flog}},
		{"obs", udprt.Options{Trace: olog}},
	}
	insts := make([]instance, len(variants))
	tallies := make([]tally, len(variants))
	for i, v := range variants {
		w := *bulk
		w.objSize = 1 << 20
		w.send, w.listen = v.opts, v.opts
		inst, err := w.setUp(seed, false)
		if err != nil {
			return err
		}
		defer inst.close()
		insts[i] = inst
	}
	// One more round than asked for: each variant's first object warms its
	// path and is left out of the comparison.
	for round := 0; round <= rounds; round++ {
		for i, inst := range insts {
			t := &tallies[i]
			n := t.attempted
			inst.run(func() bool { return t.attempted > n }, nil, t.add)
			if t.failed > 0 {
				return fmt.Errorf("instrument %s: %w", variants[i].name, t.firstErr)
			}
		}
	}
	if err := flog.Close(); err != nil {
		return err
	}
	if err := olog.Close(); err != nil {
		return err
	}
	base := median(tallies[0].ms[1:])
	for i, v := range variants[1:] {
		res.set(v.name+".overhead_pct", 100*(median(tallies[i+1].ms[1:])/base-1), "%")
	}
	// Both endpoints write to the one log: bytes per data packet sent, and
	// span events per transfer.
	res.set("flight.bytes_per_pkt", float64(fbytes.bytes)/float64(tallies[2].sent), "count")
	res.set("obs.events_per_xfer", float64(obytes.lines)/float64(tallies[3].attempted), "count")
	return nil
}
