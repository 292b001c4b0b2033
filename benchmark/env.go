package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/hpcnet/fobs/internal/udprt"
)

// endToEndNames is every end-to-end metric, in reporting order.
var endToEndNames = []string{
	"setup_s", "goodput_mbps", "xfer_ms_p50", "rss_peak_mib", "alloc_kib_per_op",
}

// procValue reads a one-line /proc file, "?" when it is not there.
func procValue(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "?"
	}
	return strings.TrimSpace(string(b))
}

// printEnvironment records what the numbers depend on that the repository
// does not fix. rmem_max/wmem_max clamp the runtime's 4 MiB socket-buffer
// request, which changes how much of a greedy sender's burst the kernel
// drops — and so waste_pct.
func printEnvironment() {
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s fastpath=%v rmem_max=%s wmem_max=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		procValue("/proc/sys/kernel/osrelease"), udprt.FastPathAvailable(),
		procValue("/proc/sys/net/core/rmem_max"), procValue("/proc/sys/net/core/wmem_max"))
}
