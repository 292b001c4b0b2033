// Package layers measures each stage of a FOBS transfer in isolation, the
// cpatulea method: time every stage alone with a fixed iteration count,
// then the composition, and chase the largest gap. Every figure is the
// median of five repetitions; payloads are 1 KiB and objects 16 MiB
// (16384 packets) unless a metric's name says otherwise.
package layers

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

const (
	reps       = 5
	packetSize = 1024
	objectSize = 16 << 20
	numPackets = objectSize / packetSize
)

// Metric is one isolated-stage figure.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Names lists every metric Run reports, in order.
var Names = []string{
	"wire.data_encode_ns", "wire.data_decode_ns", "wire.ack_encode_ns", "wire.ack_decode_ns",
	"wire.allocs_per_pkt", "wire.prelude_bytes",
	"bitmap.set_ns", "bitmap.extract_ns", "bitmap.merge_ns", "bitmap.first_unset_ns",
	"core.next_packet_ns", "core.handle_data_ns", "core.handle_ack_ns", "core.build_ack_ns",
	"core.pump_ns_per_pkt", "core.sched_waste_pct", "core.content_id_ns_per_kib",
	"core.new_sender_us_64k", "core.new_receiver_us_64k", "core.new_sender_us_16m", "core.new_receiver_us_16m",
	"batchio.send_ns_per_pkt_v2", "batchio.send_ns_per_pkt_v32", "batchio.recv_ns_per_pkt",
	"batchio.pump_mbps", "batchio.pkts_per_syscall_tx", "batchio.pkts_per_syscall_rx",
	"rawudp.pump_mbps", "batchio.pump_vs_raw_x",
	"checkpoint.write_framed_us", "checkpoint.read_framed_us", "checkpoint.save_ms_16mib", "checkpoint.load_ms_16mib",
}

// sink keeps measured calls' results alive so the compiler cannot drop them.
var sink int

// medianOf runs fn reps times and returns the median of what it returns.
func medianOf(fn func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = fn()
	}
	sort.Float64s(v)
	return v[reps/2]
}

// nsPerOp is the median over reps of the mean time of one of iters calls.
func nsPerOp(iters int, fn func(i int)) float64 {
	return medianOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(iters)
	})
}

// Run measures every stage. dir is scratch space for the checkpoint files;
// seed fixes the object bytes and the scheduler exchange's drop pattern;
// scale (1 for a real run) divides the iteration counts for smoke tests.
func Run(dir string, seed int64, scale int) ([]Metric, error) {
	if scale < 1 {
		scale = 1
	}
	obj := make([]byte, objectSize)
	rand.New(rand.NewSource(seed)).Read(obj)
	var out []Metric
	add := func(name string, v float64, unit string) { out = append(out, Metric{name, v, unit}) }

	wireStage(add, obj, scale)
	bitmapStage(add, scale)
	coreStage(add, obj, seed, scale)
	if err := socketStage(add, scale); err != nil {
		return nil, err
	}
	if err := checkpointStage(add, dir, obj, scale); err != nil {
		return nil, err
	}
	return out, nil
}

func wireStage(add func(string, float64, string), obj []byte, scale int) {
	iters := 200000 / scale
	d := wire.Data{Transfer: 7, Seq: 1, Total: numPackets, Payload: obj[:packetSize]}
	buf := make([]byte, 0, 2*packetSize)
	add("wire.data_encode_ns", nsPerOp(iters, func(i int) {
		d.Seq = uint32(i % numPackets)
		buf = wire.AppendData(buf[:0], &d)
	}), "ns")
	add("wire.data_decode_ns", nsPerOp(iters, func(int) {
		got, _ := wire.DecodeData(buf)
		sink += len(got.Payload)
	}), "ns")

	// An acknowledgement for a 16k-packet object: as many bitmap words as
	// a 1 KiB ack carries.
	frag := bitmap.Fragment{Start: 0, Words: make([]uint64, wire.MaxFragWords(packetSize))}
	for i := range frag.Words {
		frag.Words[i] = 0xfffffffffffffff0
	}
	ack := wire.Ack{Transfer: 7, AckSeq: 9, Received: 9000, Delta: 64, Frag: frag}
	abuf := make([]byte, 0, 2*packetSize)
	add("wire.ack_encode_ns", nsPerOp(iters/4, func(int) {
		abuf = wire.AppendAck(abuf[:0], &ack)
	}), "ns")
	words := make([]uint64, 0, len(frag.Words))
	add("wire.ack_decode_ns", nsPerOp(iters/4, func(int) {
		a, _ := wire.DecodeAckInto(abuf, words)
		sink += len(a.Frag.Words)
	}), "ns")
	add("wire.allocs_per_pkt", testing.AllocsPerRun(1000, func() {
		buf = wire.AppendData(buf[:0], &d)
		got, _ := wire.DecodeData(buf)
		sink += len(got.Payload)
	}), "count")

	// What a default Send writes ahead of its first data packet.
	check := wire.AppendCheck(nil, &wire.Check{Transfer: 7, ObjectSize: objectSize, PacketSize: packetSize})
	hello := wire.AppendHello(nil, &wire.Hello{Transfer: 7, ObjectSize: objectSize, PacketSize: packetSize})
	add("wire.prelude_bytes", float64(len(check)+len(hello)), "count")
}

func bitmapStage(add func(string, float64, string), scale int) {
	const bits = numPackets
	// 90% full: every tenth bit is a hole.
	mostly := bitmap.New(bits)
	for i := 0; i < bits; i++ {
		if i%10 != 0 {
			mostly.Set(i)
		}
	}
	passes := 16 / scale
	if passes < 1 {
		passes = 1
	}
	b := bitmap.New(bits)
	add("bitmap.set_ns", medianOf(func() float64 {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			b.Reset()
			for i := 0; i < bits; i++ {
				b.Set(i)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(passes*bits)
	}), "ns")
	maxWords := wire.MaxFragWords(packetSize)
	dst := make([]uint64, 0, maxWords)
	iters := 100000 / scale
	add("bitmap.extract_ns", nsPerOp(iters, func(i int) {
		f := mostly.ExtractInto(dst, (i*64)%bits, maxWords)
		sink += len(f.Words)
	}), "ns")
	frag := mostly.Extract(0, maxWords)
	target := mostly.Clone()
	add("bitmap.merge_ns", nsPerOp(iters, func(int) {
		n, _ := target.Merge(frag)
		sink += n
	}), "ns")
	add("bitmap.first_unset_ns", nsPerOp(iters, func(i int) {
		sink += mostly.FirstUnset((i * 7) % bits)
	}), "ns")
}

func coreStage(add func(string, float64, string), obj []byte, seed int64, scale int) {
	cfg := core.Config{PacketSize: packetSize, Transfer: 7}
	n := numPackets / scale

	add("core.next_packet_ns", medianOf(func() float64 {
		s := core.NewSender(obj, cfg)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p, _ := s.NextPacket()
			sink += len(p.Payload)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}), "ns")

	var handleAck, buildAck float64
	add("core.handle_data_ns", medianOf(func() float64 {
		s := core.NewSender(obj, cfg)
		pkts := make([]wire.Data, n)
		for i := range pkts {
			pkts[i], _ = s.NextPacket()
		}
		r := core.NewReceiver(objectSize, cfg)
		var acks []wire.Ack
		var building, aside time.Duration
		t0 := time.Now()
		for _, p := range pkts {
			if due, _ := r.HandleData(p); due {
				a0 := time.Now()
				a := r.BuildAck()
				building += time.Since(a0)
				// BuildAck reuses its fragment buffer; keep a copy to feed
				// the sender afterwards.
				a.Frag.Words = append([]uint64(nil), a.Frag.Words...)
				acks = append(acks, a)
				aside += time.Since(a0)
			}
		}
		total := time.Since(t0)
		if len(acks) > 0 {
			buildAck = float64(building.Nanoseconds()) / float64(len(acks))
			h0 := time.Now()
			for _, a := range acks {
				s.HandleAck(a)
			}
			handleAck = float64(time.Since(h0).Nanoseconds()) / float64(len(acks))
		}
		return float64((total - aside).Nanoseconds()) / float64(n)
	}), "ns")
	add("core.handle_ack_ns", handleAck, "ns")
	add("core.build_ack_ns", buildAck, "ns")

	add("core.pump_ns_per_pkt", medianOf(func() float64 {
		t0 := time.Now()
		sent, _ := exchange(obj[:n*packetSize], cfg, nil)
		return float64(time.Since(t0).Nanoseconds()) / float64(sent)
	}), "ns")
	sent, needed := exchange(obj[:n*packetSize], cfg, rand.New(rand.NewSource(seed)))
	add("core.sched_waste_pct", 100*float64(sent-needed)/float64(needed), "%")

	add("core.content_id_ns_per_kib", medianOf(func() float64 {
		t0 := time.Now()
		id := core.ContentID(obj)
		sink += int(id[0])
		return float64(time.Since(t0).Nanoseconds()) / float64(len(obj)/1024)
	}), "ns")

	for _, sz := range []struct {
		tag  string
		size int
	}{{"64k", 64 << 10}, {"16m", objectSize}} {
		sz := sz
		add("core.new_sender_us_"+sz.tag, medianOf(func() float64 {
			t0 := time.Now()
			s := core.NewSender(obj[:sz.size], cfg)
			sink += s.NumPackets()
			return float64(time.Since(t0).Nanoseconds()) / 1e3
		}), "us")
		add("core.new_receiver_us_"+sz.tag, medianOf(func() float64 {
			t0 := time.Now()
			r := core.NewReceiver(int64(sz.size), cfg)
			sink += r.NumPackets()
			return float64(time.Since(t0).Nanoseconds()) / 1e3
		}), "us")
	}
}

// dropRate is the data-packet loss the scheduler exchange injects for
// core.sched_waste_pct.
const dropRate = 0.03

// exchange runs a whole transfer between a core.Sender and a core.Receiver
// with no socket between them: every packet and acknowledgement still goes
// through the wire codec, and delivery is instantaneous. With drops non-nil
// each data packet is lost with probability dropRate. It returns the
// sender's packets sent and needed — an exact count for a given seed.
func exchange(obj []byte, cfg core.Config, drops *rand.Rand) (sent, needed int) {
	s := core.NewSender(obj, cfg)
	r := core.NewReceiver(int64(len(obj)), cfg)
	pkt := make([]byte, 0, 2*packetSize)
	abuf := make([]byte, 0, 2*packetSize)
	var words []uint64
	for !r.Complete() {
		for k := s.BatchSize(); k > 0; k-- {
			p, ok := s.NextPacket()
			if !ok {
				break
			}
			pkt = wire.AppendData(pkt[:0], &p)
			if drops != nil && drops.Float64() < dropRate {
				continue
			}
			d, err := wire.DecodeData(pkt)
			if err != nil {
				panic(fmt.Sprintf("layers: own packet failed to decode: %v", err))
			}
			due, _ := r.HandleData(d)
			if !due && !r.Complete() {
				continue
			}
			a := r.BuildAck()
			abuf = wire.AppendAck(abuf[:0], &a)
			got, err := wire.DecodeAckInto(abuf, words)
			if err != nil {
				panic(fmt.Sprintf("layers: own ack failed to decode: %v", err))
			}
			words = got.Frag.Words
			s.HandleAck(got)
		}
	}
	st := s.Stats()
	return st.PacketsSent, st.PacketsNeeded
}

// udpPair returns a connected sending socket and the bound socket it sends
// to, with the runtime's own 4 MiB buffer request.
func udpPair() (snd, peer *net.UDPConn, err error) {
	peer, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	snd, err = net.DialUDP("udp", nil, peer.LocalAddr().(*net.UDPAddr))
	if err != nil {
		peer.Close()
		return nil, nil, err
	}
	_ = peer.SetReadBuffer(4 << 20)
	_ = snd.SetWriteBuffer(4 << 20)
	return snd, peer, nil
}

func socketStage(add func(string, float64, string), scale int) error {
	pkts := make([][]byte, 32)
	for i := range pkts {
		pkts[i] = make([]byte, packetSize+wire.DataHeaderLen)
	}
	fast := batchio.FastPathAvailable()

	// Send cost alone: the peer never reads, so once its buffer is full the
	// kernel drops on delivery, which on loopback costs the sender nothing
	// extra.
	for _, v := range []int{2, 32} {
		snd, peer, err := udpPair()
		if err != nil {
			return err
		}
		tx, err := batchio.NewSender(snd, v, fast)
		if err != nil {
			return err
		}
		calls := 16000 / v / scale
		ns := nsPerOp(calls, func(int) {
			n, _ := tx.Send(pkts[:v])
			sink += n
		})
		add(fmt.Sprintf("batchio.send_ns_per_pkt_v%d", v), ns/float64(v), "ns")
		snd.Close()
		peer.Close()
	}

	// Receive cost alone: fill the socket buffer first, then time draining
	// it, so the receiver never waits for the sender.
	snd, peer, err := udpPair()
	if err != nil {
		return err
	}
	defer snd.Close()
	defer peer.Close()
	tx, err := batchio.NewSender(snd, 32, fast)
	if err != nil {
		return err
	}
	rx, err := batchio.NewReceiver(peer, 32, 2*packetSize, fast)
	if err != nil {
		return err
	}
	const queued = 1024 // ~2.3 MiB of skb truesize: under the clamped 4 MiB request
	var recvErr error
	add("batchio.recv_ns_per_pkt", medianOf(func() float64 {
		for i := 0; i < queued/32; i++ {
			tx.Send(pkts)
		}
		got := 0
		t0 := time.Now()
		for got < queued {
			peer.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			n, err := rx.Recv()
			if err != nil {
				break // a full buffer dropped the tail; time what arrived
			}
			got += n
		}
		if got == 0 {
			recvErr = fmt.Errorf("layers: no datagram crossed loopback")
			return 0
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(got)
	}), "ns")
	if recvErr != nil {
		return recvErr
	}

	want := 50000 / scale
	mbps, txFill, rxFill, err := pump(want, true)
	if err != nil {
		return err
	}
	raw, _, _, err := pump(want, false)
	if err != nil {
		return err
	}
	add("batchio.pump_mbps", mbps, "MB/s")
	add("batchio.pkts_per_syscall_tx", txFill, "count")
	add("batchio.pkts_per_syscall_rx", rxFill, "count")
	add("rawudp.pump_mbps", raw, "MB/s")
	add("batchio.pump_vs_raw_x", mbps/raw, "x")
	return nil
}

// pump floods 1 KiB datagrams across loopback from one goroutine while
// this one drains them, until want have arrived, and returns the received
// payload rate in MB/s (median of reps). batched uses batchio at vector
// length 32 on both sides; otherwise it is a bare net.UDPConn Write/Read
// loop — the stdlib baseline, not a repository layer.
func pump(want int, batched bool) (mbps, txFill, rxFill float64, err error) {
	mbps = medianOf(func() float64 {
		var rate float64
		rate, txFill, rxFill, err = pumpOnce(want, batched)
		return rate
	})
	return mbps, txFill, rxFill, err
}

func pumpOnce(want int, batched bool) (mbps, txFill, rxFill float64, err error) {
	snd, peer, err := udpPair()
	if err != nil {
		return 0, 0, 0, err
	}
	defer snd.Close()
	defer peer.Close()
	fast := batchio.FastPathAvailable()
	tx, err := batchio.NewSender(snd, 32, fast)
	if err != nil {
		return 0, 0, 0, err
	}
	rx, err := batchio.NewReceiver(peer, 32, 2*packetSize, fast)
	if err != nil {
		return 0, 0, 0, err
	}
	pkts := make([][]byte, 32)
	for i := range pkts {
		pkts[i] = make([]byte, packetSize)
	}
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if batched {
				tx.Send(pkts)
			} else {
				snd.Write(pkts[0])
			}
		}
	}()
	buf := make([]byte, 2*packetSize)
	got := 0
	t0 := time.Now()
	for got < want && err == nil {
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		n := 1
		if batched {
			n, err = rx.Recv()
		} else {
			_, err = peer.Read(buf)
		}
		got += n
	}
	el := time.Since(t0).Seconds()
	close(stop)
	<-flooded // the sender's counters are the flooder's until it has stopped
	if err != nil {
		return 0, 0, 0, fmt.Errorf("layers: pump read: %w", err)
	}
	txc, rxc := tx.Counters(), rx.Counters()
	return float64(got) * packetSize / 1e6 / el, txc.AvgSendBatch(), rxc.AvgRecvBatch(), nil
}

func checkpointStage(add func(string, float64, string), dir string, obj []byte, scale int) error {
	magic := [8]byte{'F', 'O', 'B', 'S', 'B', 'N', 'C', 'H'}
	body := obj[:1024] // one task transition is about this much JSON
	path := filepath.Join(dir, "framed")
	var ferr error
	iters := 200 / scale
	add("checkpoint.write_framed_us", nsPerOp(iters, func(int) {
		if err := checkpoint.WriteFramed(path, magic, body); err != nil {
			ferr = err
		}
	})/1e3, "us")
	add("checkpoint.read_framed_us", nsPerOp(iters, func(int) {
		b, err := checkpoint.ReadFramed(path, magic)
		if err != nil {
			ferr = err
		}
		sink += len(b)
	})/1e3, "us")
	if ferr != nil {
		return ferr
	}
	os.Remove(path)

	st := &checkpoint.State{
		Transfer: 7, ObjectSize: objectSize, PacketSize: packetSize,
		Received: numPackets / 2, Words: make([]uint64, numPackets/64), Object: obj,
	}
	add("checkpoint.save_ms_16mib", medianOf(func() float64 {
		t0 := time.Now()
		if err := checkpoint.Save(dir, st); err != nil {
			ferr = err
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}), "ms")
	add("checkpoint.load_ms_16mib", medianOf(func() float64 {
		t0 := time.Now()
		got, err := checkpoint.Load(checkpoint.File(dir, st.Transfer))
		if err != nil {
			ferr = err
		} else {
			sink += len(got.Object)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}), "ms")
	checkpoint.Remove(dir, st.Transfer)
	return ferr
}
