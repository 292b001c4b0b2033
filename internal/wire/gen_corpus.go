//go:build ignore

// gen_corpus regenerates the committed fuzz seed corpus under testdata/fuzz
// from a captured in-memory transfer: real data, acknowledgement and
// control frames in the Go fuzzing corpus-file format. Run it from this
// directory after a wire-format change:
//
//	go run gen_corpus.go
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

func main() {
	obj := make([]byte, 8<<10+5)
	for i := range obj {
		obj[i] = byte(i * 131)
	}
	cfg := core.Config{PacketSize: 1024, AckFrequency: 4, Checksum: true}
	snd := core.NewSender(obj, cfg)
	cfg = snd.Config()
	rcv := core.NewReceiver(int64(len(obj)), cfg)

	var datas, acks [][]byte
	for i := 0; i < 10000 && !rcv.Complete(); i++ {
		pkt, ok := snd.NextPacket()
		if !ok {
			break
		}
		frame := wire.AppendData(nil, &pkt)
		datas = append(datas, frame)
		d, err := wire.DecodeData(frame)
		if err != nil {
			log.Fatalf("data frame does not decode: %v", err)
		}
		ackDue, err := rcv.HandleData(d)
		if err != nil {
			log.Fatalf("receiver rejected frame: %v", err)
		}
		if ackDue {
			a := rcv.BuildAck()
			acks = append(acks, wire.AppendAck(nil, &a))
			if err := snd.HandleAck(a); err != nil {
				log.Fatalf("sender rejected ack: %v", err)
			}
		}
	}
	if !rcv.Complete() {
		log.Fatal("capture exchange never completed")
	}

	control := [][]byte{
		wire.AppendHello(nil, &wire.Hello{
			Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)), PacketSize: uint32(cfg.PacketSize),
		}),
		// The striped announcement: the same HELLO with its stripe table.
		wire.AppendHello(nil, &wire.Hello{
			Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)), PacketSize: uint32(cfg.PacketSize),
			Stripes: []wire.StripeDesc{
				{Transfer: cfg.Transfer, Offset: 0, Length: 4096},
				{Transfer: cfg.Transfer + 1, Offset: 4096, Length: uint64(len(obj)) - 4096},
			},
		}),
		wire.AppendCheck(nil, &wire.Check{
			Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)),
			PacketSize: uint32(cfg.PacketSize), Flags: wire.CheckFlagDedup,
			Digest: core.ContentID(obj),
			Trace:  [16]byte{0xDE, 0xAD, 0xBE, 0xEF, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		}),
		wire.AppendComplete(nil, &wire.Complete{
			Transfer: cfg.Transfer, Received: uint64(len(obj)), Digest: wire.ContentTag(core.ContentID(rcv.Object())),
		}),
		wire.AppendAbort(nil, &wire.Abort{Transfer: cfg.Transfer, Reason: wire.AbortStalled}),
		// The answer without and with a receive window in its fourth byte.
		wire.AppendHave(nil, &wire.Have{
			Transfer: cfg.Transfer, Received: 3, Words: []uint64{^uint64(0), 0, 0b101},
		}),
		wire.AppendHave(nil, &wire.Have{
			Transfer: cfg.Transfer, Received: 3, Words: []uint64{^uint64(0), 0, 0b101}, Window: 17,
		}),
	}

	// A handful of representative frames per target keeps the committed
	// corpus small; the in-code f.Add seeds cover the rest of the capture.
	// The control frames go in under the CHECK revision that speaks them:
	// the captured-* files of FuzzDecodeControl are earlier revisions'
	// frames — HELLO-ACK, TRACE, RESUME, version-1 and -2 CHECKs among them —
	// kept as seeds the decoders must refuse.
	write("FuzzDecodeData", "captured", [][]byte{datas[0], datas[len(datas)/2], datas[len(datas)-1]})
	write("FuzzDecodeAck", "captured", [][]byte{acks[0], acks[len(acks)-1]})
	write("FuzzDecodeControl", fmt.Sprintf("v%d", wire.CheckVersion), control)
}

// write stores each frame as one corpus file for the named fuzz target,
// named by prefix and index.
func write(target, prefix string, frames [][]byte) {
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, frame := range frames {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("%s-%02d", prefix, i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
