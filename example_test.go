package fobs_test

import (
	"context"
	"fmt"
	"time"

	"github.com/hpcnet/fobs"
)

// A real loopback transfer through the public API.
func ExampleSend() {
	l, err := fobs.Listen("127.0.0.1:0", fobs.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan []byte, 1)
	go func() {
		obj, _, _ := l.Accept(ctx)
		done <- obj
	}()

	object := []byte("an object-based transfer moves the whole buffer")
	if _, err := fobs.Send(ctx, l.Addr(), object, fobs.Config{}, fobs.Options{}); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s\n", <-done)
	// Output:
	// an object-based transfer moves the whole buffer
}
