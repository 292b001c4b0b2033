// Object store ingest: a FOBS server accepting several concurrent uploads
// — the "moving terabyte data sets between sites" workload, many clients
// at once. Each sender tags its transfer; the server demultiplexes them on
// one UDP socket and hands every completed object to a handler.
//
//	go run ./examples/objectstore
package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"github.com/hpcnet/fobs"
)

func main() {
	srv, err := fobs.Listen("127.0.0.1:0", fobs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	type stored struct {
		size int
		sum  [32]byte
	}
	var mu sync.Mutex
	store := map[uint32]stored{}
	done := make(chan struct{}, 16)
	go srv.Serve(ctx, func(transfer uint32, obj []byte, st fobs.ReceiverStats) {
		mu.Lock()
		store[transfer] = stored{size: len(obj), sum: sha256.Sum256(obj)}
		mu.Unlock()
		done <- struct{}{}
	})

	// Four clients upload concurrently, each with its own transfer tag.
	const clients = 4
	sums := make([][32]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obj := make([]byte, (4+i)<<20)
			rand.New(rand.NewSource(int64(i))).Read(obj)
			sums[i] = sha256.Sum256(obj)
			start := time.Now()
			_, err := fobs.Send(ctx, srv.Addr(), obj,
				fobs.Config{Transfer: uint32(i + 1)},
				fobs.Options{Pace: 10 * time.Microsecond})
			if err != nil {
				log.Fatalf("client %d: %v", i, err)
			}
			fmt.Printf("client %d uploaded %d MiB in %v\n",
				i, len(obj)>>20, time.Since(start).Round(time.Millisecond))
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		<-done
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < clients; i++ {
		got := store[uint32(i+1)]
		if got.sum != sums[i] {
			log.Fatalf("object %d corrupted in the store", i+1)
		}
		fmt.Printf("store has object %d: %d MiB, checksum verified\n", i+1, got.size>>20)
	}
}
