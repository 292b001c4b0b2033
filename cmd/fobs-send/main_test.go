package main

import (
	"testing"

	"github.com/hpcnet/fobs/cmd/internal/cli"
)

func TestParseSize(t *testing.T) {
	for in, want := range map[string]int64{
		"40MiB":  40 << 20,
		"1GiB":   1 << 30,
		"512KiB": 512 << 10,
		"1000":   1000,
		"2MB":    2e6,
		"3kb":    3e3,
		" 7MiB ": 7 << 20,
	} {
		got, err := cli.ObjectSize(in)
		if err != nil {
			t.Errorf("parseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "MiB", "twelve", "12XB"} {
		if _, err := cli.ObjectSize(bad); err == nil {
			t.Errorf("parseSize(%q) accepted", bad)
		}
	}
}
