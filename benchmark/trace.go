package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/hpcnet/fobs/benchmark/layers"
)

// tracedNames lists what the traced pass itself reports, per workload:
// the udprt layer as the workload exercises it, the tasks layer, and the
// harness's own tracing overhead.
var tracedNames = []string{
	"udprt.listen_ms", "udprt.send_ms_p50", "udprt.send_ms_tail", "udprt.accept_ms_p50",
	"udprt.tx_syscalls_per_mib", "udprt.rx_syscalls_per_mib", "udprt.tx_batch_fill", "udprt.rx_batch_fill",
	"udprt.retransmit_pct", "udprt.rx_dup_pct", "udprt.sock_drop_pct",
	"udprt.stalls", "udprt.idle_timeouts", "udprt.engine_ns_per_pkt",
	"tasks.submit_us_p50", "tasks.queue_wait_ms_p50", "tasks.run_ms_p50", "tasks.done_ms_tail",
	"tasks.attempts_per_task", "tasks.events_per_task", "tasks.dedup_hit_pct", "tasks.dedup_task_ms_p50",
	"cpu_ns_per_byte", "waste_pct", "fail_pct", "bench.trace_overhead_pct",
}

// perLayerNames is every per-layer metric, in reporting order.
func perLayerNames() []string {
	names := append([]string(nil), layers.Names...)
	names = append(names, isolatedNames...)
	return append(names, tracedNames...)
}

// tracedPassMax caps the traced pass; its untraced twin runs as long.
const tracedPassMax = 4 * time.Second

// segment is how long the traced and untraced instances alternate for, so
// machine drift lands on both sides of the overhead comparison.
const segment = time.Second

// perLayer is the traced run: the workload with harness spans and the
// program's public counters on, interleaved with an untraced twin for the
// overhead figure, then the isolated-stage ledger. No end-to-end metric is
// taken here.
func (w *workload) perLayer(seed int64, window time.Duration, spansPath string, ledger, quick bool) (*result, error) {
	res := newResult()
	plain, _, err := w.ready(seed, false, res)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	probed, _, err := w.ready(seed, true, res)
	if err != nil {
		return nil, err
	}
	defer probed.close()

	pass := window
	if pass > tracedPassMax {
		pass = tracedPassMax
	}
	seg := segment
	if seg > pass {
		seg = pass
	}
	tr := newTracer()
	var off, on tally
	var taskOps []opResult
	keep := func(r opResult) {
		if r.task != nil {
			taskOps = append(taskOps, r)
		}
	}
	for spent := time.Duration(0); spent < pass; spent += seg {
		off.measure(plain, seg, 0, nil, nil)
		on.measure(probed, seg, 0, tr, keep)
	}
	res.count(off.attempted, off.failed, off.firstErr)
	res.count(on.attempted, on.failed, on.firstErr)
	if on.bytes == 0 || off.bytes == 0 {
		return nil, fmt.Errorf("%s: the traced pass delivered nothing: %v", w.name, res.firstErr)
	}

	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# %s: %d spans of %d traced operations written to %s\n", w.name, len(tr.spans), on.attempted, spansPath)

	if ledger {
		if err := stageLedger(res, seed, quick); err != nil {
			return nil, err
		}
		// What the isolated stages do not explain of the workload's CPU
		// per packet: engine loops, timers, scheduling, kernel copies
		// beyond the 1 KiB the stages move.
		explained := res.Metrics["core.pump_ns_per_pkt"].Value +
			res.Metrics["batchio.send_ns_per_pkt_v2"].Value + res.Metrics["batchio.recv_ns_per_pkt"].Value
		res.set("udprt.engine_ns_per_pkt", off.cpuNsPerByte()*float64(w.packet)-explained, "ns")
	}

	// The udprt layer as this workload exercised it.
	sendSpan, acceptSpan := "send", "accept"
	if w.recv == viaDaemon {
		// The daemon's movers call Send; the nearest harness-side
		// boundaries are the task's dispatched→done and queued→dispatched.
		sendSpan, acceptSpan = "running", "queued"
	}
	sends := tr.durations(sendSpan)
	pct, sendTail := tail(sends)
	fmt.Printf("# %s: udprt.send_ms_tail is p%g of %d sends\n", w.name, pct, len(sends))
	mib := float64(on.bytes) / (1 << 20)
	sio, rio := probed.counters()
	res.set("udprt.listen_ms", float64(probed.listenTime())/1e6, "ms")
	res.set("udprt.send_ms_p50", median(sends), "ms")
	res.set("udprt.send_ms_tail", sendTail, "ms")
	res.set("udprt.accept_ms_p50", median(tr.durations(acceptSpan)), "ms")
	res.set("udprt.tx_syscalls_per_mib", float64(sio.SendCalls)/mib, "count")
	res.set("udprt.rx_syscalls_per_mib", float64(rio.RecvCalls)/mib, "count")
	res.set("udprt.tx_batch_fill", sio.AvgSendBatch(), "count")
	res.set("udprt.rx_batch_fill", rio.AvgRecvBatch(), "count")
	res.set("udprt.retransmit_pct", ratioPct(on.retransmits, on.sent), "%")
	res.set("udprt.rx_dup_pct", ratioPct(on.duplicates, on.arrived), "%")
	// Sent but never seen by the receiving engine. On loopback there is no
	// wire to lose a datagram: this is our own socket buffer overflowing.
	res.set("udprt.sock_drop_pct", ratioPct(on.sent-on.arrived, on.sent), "%")
	res.set("udprt.stalls", float64(on.stalls), "count")
	res.set("udprt.idle_timeouts", float64(on.idle), "count")
	// The tasks layer: from this pass when it ran the daemon, otherwise
	// from a short traced pass of fobsd_tasks.
	if w.recv != viaDaemon {
		fobsd, _ := findWorkload("fobsd_tasks")
		inst, _, err := fobsd.ready(seed, true, res)
		if err != nil {
			return nil, err
		}
		var t tally
		t.measure(inst, seg, 0, nil, keep)
		inst.close()
		res.count(t.attempted, t.failed, t.firstErr)
	}
	taskMetrics(res, taskOps)

	res.set("bench.trace_overhead_pct", 100*(1-on.goodputMBps()/off.goodputMBps()), "%")
	res.set("cpu_ns_per_byte", off.cpuNsPerByte(), "ns/B")
	res.set("waste_pct", on.wastePct(), "%")
	res.set("fail_pct", ratioPct(res.Failed, res.Attempted), "%")
	res.Correct = res.Failed == 0
	return res, nil
}

// stageLedger adds the workload-independent figures: every stage in isolation,
// then whole transfers in the shapes that isolate udprt's fixed costs.
func stageLedger(res *result, seed int64, quick bool) error {
	dir, err := os.MkdirTemp("", "fobs-bench-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scale := 1
	if quick {
		scale = 16
	}
	t0 := time.Now()
	stage, err := layers.Run(dir, seed, scale)
	if err != nil {
		return err
	}
	for _, m := range stage {
		res.set(m.Name, m.Value, m.Unit)
	}
	t1 := time.Now()
	err = isolated(res, seed, quick)
	fmt.Printf("# ledger: isolated stages took %.1fs, isolated transfers %.1fs\n", t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	return err
}

// taskMetrics reduces finished tasks' durable event timelines to the tasks
// layer's figures.
func taskMetrics(res *result, ops []opResult) {
	var submitUs, queueMs, runMs, doneMs, dedupMs []float64
	var attempts, events, deduped int
	for _, op := range ops {
		t := op.task
		submitUs = append(submitUs, float64(op.submit)/1e3)
		attempts += t.Attempts
		events += len(t.Events)
		var dispatched, done time.Time
		for _, e := range t.Events {
			switch e.Event {
			case "dispatched":
				dispatched = e.At
			case "done":
				done = e.At
			}
		}
		if dispatched.IsZero() || done.IsZero() {
			continue
		}
		queueMs = append(queueMs, float64(dispatched.Sub(t.Created))/1e6)
		runMs = append(runMs, float64(done.Sub(dispatched))/1e6)
		doneMs = append(doneMs, float64(done.Sub(t.Created))/1e6)
		if t.Stats != nil && t.Stats.Deduped {
			deduped++
			dedupMs = append(dedupMs, float64(op.dur)/1e6)
		}
	}
	pct, doneTail := tail(doneMs)
	fmt.Printf("# tasks.done_ms_tail is p%g of %d tasks\n", pct, len(doneMs))
	n := float64(len(ops))
	if n == 0 {
		n = 1
	}
	res.set("tasks.submit_us_p50", median(submitUs), "us")
	res.set("tasks.queue_wait_ms_p50", median(queueMs), "ms")
	res.set("tasks.run_ms_p50", median(runMs), "ms")
	res.set("tasks.done_ms_tail", doneTail, "ms")
	res.set("tasks.attempts_per_task", float64(attempts)/n, "count")
	res.set("tasks.events_per_task", float64(events)/n, "count")
	res.set("tasks.dedup_hit_pct", ratioPct(deduped, len(ops)), "%")
	res.set("tasks.dedup_task_ms_p50", median(dedupMs), "ms")
}

// spansFile is where a traced run of a workload leaves its spans.
func spansFile(name string) string {
	return filepath.Join(os.TempDir(), "fobs-bench-spans-"+name+".json")
}
