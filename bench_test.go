package fobs_test

// The benchmarks regenerating the paper's tables and figures on the
// simulator are internal/experiments'; this one is the public API's own.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/hpcnet/fobs"
)

// BenchmarkLoopbackTransfer measures the real-socket runtime end to end on
// loopback with an 8 MB object.
func BenchmarkLoopbackTransfer(b *testing.B) {
	if testing.Short() {
		b.Skip("real-socket benchmark skipped in -short mode")
	}
	obj := bytes.Repeat([]byte{0xAB}, 8<<20)
	b.SetBytes(int64(len(obj)))
	for i := 0; i < b.N; i++ {
		l, err := fobs.Listen("127.0.0.1:0", fobs.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		done := make(chan error, 1)
		go func() {
			_, _, err := l.Accept(ctx)
			done <- err
		}()
		if _, err := fobs.Send(ctx, l.Addr(), obj, fobs.Config{}, fobs.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		cancel()
		l.Close()
	}
}
