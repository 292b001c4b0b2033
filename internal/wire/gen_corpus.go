//go:build ignore

// gen_corpus regenerates the committed fuzz seed corpus under testdata/fuzz
// from a captured in-memory transfer: real data, acknowledgement and
// control frames in the Go fuzzing corpus-file format. Run it from this
// directory after a wire-format change:
//
//	go run gen_corpus.go
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

	check := wire.Check{
		Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)),
		PacketSize: uint32(cfg.PacketSize),
		Flags:      wire.CheckFlagDedup | wire.CheckFlagVerify,
		Digest:     core.ContentID(obj),
		StripeDigests: [][32]byte{
			core.ContentID(obj[:4096]), core.ContentID(obj[4096:]),
		},
	}
	// The same query as the previous revision framed it: plain SHA-256
	// digests under version 1. A must-reject seed (ErrCheckVersion).
	oldCheck := wire.Check{
		Version:  1,
		Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)),
		PacketSize: uint32(cfg.PacketSize),
		Flags:      wire.CheckFlagDedup | wire.CheckFlagVerify,
		Digest:     sha256.Sum256(obj),
		StripeDigests: [][32]byte{
			sha256.Sum256(obj[:4096]), sha256.Sum256(obj[4096:]),
		},
	}
	control := [][]byte{
		wire.AppendHello(nil, &wire.Hello{
			Transfer: cfg.Transfer, ObjectSize: uint64(len(obj)), PacketSize: uint32(cfg.PacketSize),
		}),
		wire.AppendHelloAck(nil, &wire.HelloAck{Transfer: cfg.Transfer}),
		wire.AppendComplete(nil, &wire.Complete{
			Transfer: cfg.Transfer, Received: uint64(len(obj)), Digest: wire.ContentTag(core.ContentID(rcv.Object())),
		}),
		wire.AppendAbort(nil, &wire.Abort{Transfer: cfg.Transfer, Reason: wire.AbortStalled}),
		// A RESUME (type 8, retired) as an earlier build wrote it: kept as a
		// seed the decoders must refuse.
		legacyResume(cfg.Transfer, obj, uint32(cfg.PacketSize)),
		wire.AppendHave(nil, &wire.Have{
			Transfer: cfg.Transfer, Received: 3, Words: []uint64{^uint64(0), 0, 0b101},
		}),
		wire.AppendTrace(nil, &wire.Trace{
			ID: [16]byte{0xDE, 0xAD, 0xBE, 0xEF, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		}),
		wire.AppendCheck(nil, &check),
		wire.AppendCheck(nil, &oldCheck),
		// The two answers with a receive window in their fourth byte (the
		// HELLO-ACK and HAVE above are the byte-zero, "no window" forms).
		wire.AppendHelloAck(nil, &wire.HelloAck{Transfer: cfg.Transfer, Window: 21}),
		wire.AppendHave(nil, &wire.Have{
			Transfer: cfg.Transfer, Received: 3, Words: []uint64{^uint64(0), 0, 0b101}, Window: 17,
		}),
	}

	// A handful of representative frames per target keeps the committed
	// corpus small; the in-code f.Add seeds cover the rest of the capture.
	write("FuzzDecodeData", [][]byte{datas[0], datas[len(datas)/2], datas[len(datas)-1]})
	write("FuzzDecodeAck", [][]byte{acks[0], acks[len(acks)-1]})
	write("FuzzDecodeControl", control)
}

// legacyResume builds a RESUME frame (type 8, version 1) of obj the way an
// earlier build wrote it: magic, type, version, streams, transfer, object
// size, packet size, whole-object CRC-32C.
func legacyResume(transfer uint32, obj []byte, packetSize uint32) []byte {
	b := binary.BigEndian.AppendUint16(nil, wire.Magic)
	b = append(b, 8, 1)
	b = binary.BigEndian.AppendUint16(b, 1)
	b = binary.BigEndian.AppendUint32(b, transfer)
	b = binary.BigEndian.AppendUint64(b, uint64(len(obj)))
	b = binary.BigEndian.AppendUint32(b, packetSize)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(obj, crc32.MakeTable(crc32.Castagnoli)))
}

// write stores each frame as one corpus file for the named fuzz target.
func write(target string, frames [][]byte) {
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, frame := range frames {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("captured-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
